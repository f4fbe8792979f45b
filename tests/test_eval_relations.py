"""Metamorphic relations of ``trapeval eval``: transforms of a seeded corpus
whose effect on every output is known without computing any metric.

Each test runs ``main`` in process on a 200-image corpus and on its
transform. Scaling every coordinate by a power of two, permuting the
detection rows (with distinct confidences) and renaming the images in their
sorted order must leave every output byte as it was. Relabelling the
categories must permute the rows of the tables and keep each PR curve's
points.
"""

from __future__ import annotations

import copy
import random
import re

import pytest

from trapeval.cli import main

from test_cli import eval_corpus, scaled_corpus, write_eval_files


def run_eval(tmp_path, capsys, name: str, payload, rows) -> dict[str, str]:
    """Every output of eval on the corpus, by file name, and its stdout."""
    work = tmp_path / name
    work.mkdir()
    det, ann = write_eval_files(work, payload, rows)
    assert main(["eval", det, ann, "--out-dir", str(work / "out")]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    outputs = {path.name: path.read_text() for path in sorted((work / "out").iterdir())}
    outputs["stdout"] = captured.out
    return outputs


@pytest.mark.parametrize("factor", [2, 2**25])
@pytest.mark.parametrize("seed", [0, 1])
def test_scaling_every_coordinate_by_a_power_of_two_changes_no_output_byte(
    tmp_path, capsys, seed, factor
):
    # Power-of-two scaling is exact in doubles, and IoU is a ratio of areas;
    # 2**25 puts every corner past 2**24.
    payload, rows = eval_corpus(seed=seed)
    scaled = scaled_corpus(payload, rows, factor)
    assert run_eval(tmp_path, capsys, "scaled", *scaled) == run_eval(
        tmp_path, capsys, "base", payload, rows
    )


@pytest.mark.parametrize("seed", [0, 1])
def test_permuting_rows_with_distinct_confidences_changes_no_output_byte(tmp_path, capsys, seed):
    payload, rows = eval_corpus(seed=seed, distinct=True)
    permuted = rows[:]
    random.Random(seed).shuffle(permuted)
    assert permuted != rows
    assert run_eval(tmp_path, capsys, "permuted", payload, permuted) == run_eval(
        tmp_path, capsys, "base", payload, rows
    )


@pytest.mark.parametrize("seed", [0, 1])
def test_renaming_images_in_their_sorted_order_changes_no_output_byte(tmp_path, capsys, seed):
    # With tied confidences: ties are broken by image, in sorted id order.
    payload, rows = eval_corpus(seed=seed)
    ids = sorted(image["id"] for image in payload["images"])
    name = {old: f"cam-{rank:04d}" for rank, old in enumerate(ids)}
    assert sorted(name.values()) == [name[old] for old in ids]
    assert ids != sorted(ids, key=lambda i: int(i[3:]))  # numeric order differs
    renamed = copy.deepcopy(payload)
    for image in renamed["images"]:
        image["id"] = name[image["id"]]
    for annotation in renamed["annotations"]:
        annotation["image_id"] = name[annotation["image_id"]]
    renamed_rows = [[name[row[0]], *row[1:]] for row in rows]
    assert run_eval(tmp_path, capsys, "renamed", renamed, renamed_rows) == run_eval(
        tmp_path, capsys, "base", payload, rows
    )


def csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()]


def polylines(svg: str) -> list[str]:
    return re.findall(r'<polyline points="([^"]*)"', svg)


def relabelled_table(text: str, label) -> list[list[str]]:
    """A per-category table's header and rows with each id relabelled, in
    ascending id order as eval writes them; the mAP lines left out."""
    head, *body = csv_rows(text)
    rows = [[str(label[int(row[0])]), *row[1:]] for row in body if not row[0].startswith("mAP")]
    return [head, *sorted(rows, key=lambda row: int(row[0]))]


def relabelled_confusion(text: str, label) -> list[list[str]]:
    """The confusion matrix with each category relabelled, rows and columns
    in ascending id order and background last, as eval writes it."""
    head, *body = csv_rows(text)

    def rename(name: str) -> str:
        return name if name == "background" else str(label[int(name)])

    cells = {(rename(row[0]), rename(col)): v for row in body for col, v in zip(head[1:], row[1:])}
    names = sorted((rename(n) for n in head[1:] if n != "background"), key=int) + ["background"]
    return [[head[0], *names], *([t, *(cells[t, p] for p in names)] for t in names)]


def map_lines(outputs: dict[str, str]) -> list[tuple[str, float]]:
    lines = [row for row in csv_rows(outputs["metrics.csv"]) if row[0].startswith("mAP")]
    lines += csv_rows(outputs["stdout"])
    return [(key, float(value)) for key, value in lines]


@pytest.mark.parametrize("seed", [0, 1])
def test_relabelling_categories_permutes_the_tables_and_keeps_each_curve(tmp_path, capsys, seed):
    payload, rows = eval_corpus(seed=seed)
    rng = random.Random(seed)
    label = dict(zip(range(1, 8), rng.sample(range(1, 40), 7)))
    assert sorted(label, key=label.get) != sorted(label)  # the id order changes
    relabelled = copy.deepcopy(payload)
    for category in relabelled["categories"]:
        category["id"] = label[category["id"]]
    for annotation in relabelled["annotations"]:
        annotation["category_id"] = label[annotation["category_id"]]
    relabelled_rows = [[row[0], label[row[1]], *row[2:]] for row in rows]
    base = run_eval(tmp_path, capsys, "base", payload, rows)
    got = run_eval(tmp_path, capsys, "relabelled", relabelled, relabelled_rows)

    for name in ("metrics.csv", "ap_modes.csv"):
        table = [row for row in csv_rows(got[name]) if not row[0].startswith("mAP")]
        assert table == relabelled_table(base[name], label)
    assert csv_rows(got["confusion_matrix.csv"]) == relabelled_confusion(
        base["confusion_matrix.csv"], label
    )
    curves = sorted(name for name in base if name.startswith("pr_curve_cat"))
    assert sorted(name for name in got if name.startswith("pr_curve_cat")) == sorted(
        f"pr_curve_cat{label[int(name[12:-4])]}.svg" for name in curves
    )
    for name in curves:
        relabelled_name = f"pr_curve_cat{label[int(name[12:-4])]}.svg"
        assert polylines(got[relabelled_name]) == polylines(base[name])
    assert sorted(polylines(got["pr_curves_all.svg"])) == sorted(polylines(base["pr_curves_all.svg"]))
    # mAP is a mean over the categories in id order, so a relabelling may
    # change the order of its sum, and with it the last bits of the mean:
    # at 12 printed digits, one unit in the last digit at most.
    got_maps, base_maps = map_lines(got), map_lines(base)
    assert [key for key, _ in got_maps] == [key for key, _ in base_maps]
    for (_, got_value), (_, base_value) in zip(got_maps, base_maps):
        assert got_value == pytest.approx(base_value, rel=1e-11, abs=0)
