"""Two fast paths of trapeval.evaluation against their definitions, which
``reference_evaluation.py`` keeps verbatim.

The detections CSV readers: on every input
``trapeval.evaluation.read_detections_csv`` (the row loop) and
``read_detection_columns`` (``np.loadtxt`` with the row loop as fallback)
must return the same detections, every corner and confidence equal by
``float.hex`` (so -0.0 lands where it did), or raise ``FormatError`` with
the same message, line number included. Where the definition lets a
``csv.Error`` out (a field past csv's size limit, a lone CR on a stream not
opened with ``newline=""``), both must raise a ``FormatError`` whose
message is ``line N: `` and that error's text. The fixed inputs aim at the
places either reader can differ from the definition: blank and quoted
lines, CRLF, -0.0 and swapped corners, NaN confidence, finite corners whose
sum overflows, and each text that loadtxt reads otherwise than the row
loop.

The greedy matching: ``evaluation._resolve``, which resolves a block's
eleven passes at once, must take in each pass the pairs ``_greedy`` takes.
"""

from __future__ import annotations

import csv
import io
import random
import re
import warnings

import numpy as np
import pytest
import reference_evaluation as ref
from hypothesis import given, settings, strategies as st

from trapeval import evaluation
from trapeval.errors import FormatError
from trapeval.evaluation import read_detection_columns, read_detections_csv

from conftest import mutants
from test_evaluation import CSV_SYMBOLS, VALID_CSV

HEADER = "image_id,category_id,confidence,x1,y1,x2,y2\n"


def outcome(read, text: str, newline: str = ""):  # as the CLI opens it
    """The detections as exact values, or the error message."""
    try:
        detections = read(io.StringIO(text, newline=newline))
    except FormatError as exc:
        return f"FormatError: {exc}"
    except csv.Error as exc:  # only the definition lets one out
        return f"csv.Error: {exc}"
    if isinstance(detections, evaluation.BoxColumns):
        return [
            (image_id, type(category_id), category_id, confidence.hex(), tuple(map(float.hex, corners)))
            for image_id, category_id, confidence, corners in zip(
                detections.image_id,
                detections.category_id.tolist(),
                detections.confidence.tolist(),
                detections.corners.tolist(),
            )
        ]
    return [
        (
            d.image_id,
            type(d.category_id),
            d.category_id,
            d.confidence.hex(),
            tuple(v.hex() for v in d.box.corners()),
        )
        for d in detections
    ]


def same_error(got, expected) -> bool:
    """Whether ``got`` is ``expected``, or, for the definition's
    ``csv.Error``, a ``FormatError`` naming a line and then its text."""
    if isinstance(expected, str) and expected.startswith("csv.Error: "):
        text = expected.removeprefix("csv.Error: ")
        return re.fullmatch(rf"FormatError: line \d+: {re.escape(text)}", str(got)) is not None
    return got == expected


def assert_same(text: str):
    expected = outcome(ref.read_detections_csv, text)
    assert same_error(outcome(read_detections_csv, text), expected)
    assert same_error(outcome(read_detection_columns, text), expected)
    return expected


# VALID_CSV with a line break quoted in its first id: after it, an edit that
# fails the next row tells line numbers from record numbers.
QUOTED_CSV = VALID_CSV.replace("im0,", '"im\n0",')


@given(st.one_of(mutants(VALID_CSV, CSV_SYMBOLS), mutants(QUOTED_CSV, CSV_SYMBOLS)))
@settings(max_examples=300, deadline=None)
def test_mutated_csv_reads_as_the_definition_reads_it(text):
    assert_same(text)


@pytest.mark.parametrize(
    "body,expected",
    [
        # blank lines are skipped but still counted
        ("\nim0,1,0.5,0,0,1,1\n\n\nim1,2,0.25,1,1,2,2\n", 2),
        ("\n\nim0,1,0.5,0,0,1\n", "FormatError: line 4: expected 7 fields, got 6"),
        (" \n", "FormatError: line 2: expected 7 fields, got 1"),
        # quoted fields, one holding a comma and one a line break
        ('"im,0","1","0.5","0","0","1","1"\n', 1),
        # a message names the physical line where its record starts
        ('"im\n0",1,0.5,0,0,1,1\nim1,1,0.5,0,0,1\n', "FormatError: line 4: expected 7 fields, got 6"),
        ('"im\n\n0",1,0.5,0,0,1\n', "FormatError: line 2: expected 7 fields, got 6"),
        ('\n"im\r\n0",1,0.5,0,0,1,1\r\n\r\nim1,1,2,0,0,1,1\r\n', "FormatError: line 6: confidence 2.0 outside [0, 1]"),
        ('im0,"1",0.5,0,0,"one",1\n', "FormatError: line 2: could not convert string to float: 'one'"),
        # CRLF line ends
        ("im0,1,0.5,0,0,1,1\r\nim1,2,0.25,1,1,2,2\r\n", 2),
        ("im0,1,0.5,0,0,1,1\r\n\r\nim1,2,0.25,nan,1,2,2\r\n", "FormatError: line 4: non-finite coordinate"),
        # -0.0 and swapped corners
        ("im0,1,0.5,-0.0,0.0,0.0,-0.0\nim0,1,0.5,0.0,-0.0,-0.0,0.0\n", 2),
        ("im0,1,0.5,3,4,1,2\nim0,1,0.5,-0.0,5,-1,-3\n", 2),
        ("im0,1,-0.0,1,1,1,1\n", 1),
        # confidence checks, NaN first among them
        ("im0,1,nan,0,0,1,1\n", "FormatError: line 2: confidence nan outside [0, 1]"),
        ("im0,1,1.5,nan,0,1,1\n", "FormatError: line 2: confidence 1.5 outside [0, 1]"),
        ("im0,x,nope,0,0,1,1\n", "FormatError: line 2: invalid literal for int() with base 10: 'x'"),
        # finite corners whose sum overflows parse; any non-finite one does not
        ("im0,1,0.5,1e308,1e308,1e308,1e308\n", 1),
        ("im0,1,0.5,-1e308,-1e308,-1.7e308,-1.7e308\n", 1),
        ("im0,1,0.5,1e308,1e308,inf,1e308\n", "FormatError: line 2: non-finite coordinate"),
        ("im0,1,0.5,inf,0,-inf,1\n", "FormatError: line 2: non-finite coordinate"),
        ("im0,1,0.5,0,0,1,1e309\n", "FormatError: line 2: non-finite coordinate"),
    ],
)
def test_fixed_csv_reads_as_the_definition_reads_it(body, expected):
    result = assert_same(HEADER + body)
    if isinstance(expected, int):
        assert isinstance(result, list) and len(result) == expected
    else:
        assert result == expected


@pytest.mark.parametrize(
    "text",
    ["", "\n", "image_id,category_id,confidence,x1,y1,x2\n", HEADER, " image_id , category_id,confidence,x1,y1,x2,y2\n"],
)
def test_header_reads_as_the_definition_reads_it(text):
    assert_same(text)


GOOD = "im0,1,0.5,0,0,1,1\n"


@pytest.mark.parametrize(
    "text,row_loop",
    [
        # read alike by loadtxt and the row loop
        (HEADER + GOOD, False),
        (HEADER + " im0 ,1,0.5,0,0,1,1\n", False),  # the spaces stay in the id
        (HEADER + "im0,+1,0.5,+1,0,1,1\n", False),
        (HEADER + "im0,1, 0.5 ,0,0,1,1\n", False),
        (HEADER.replace("\n", "\r\n") + GOOD.replace("\n", "\r\n") * 2, False),
        (HEADER + "i" * 31 + ",1,0.5,0,0,1,1\n", False),
        (HEADER + "#im0,1,0.5,0,0,1,1\n", False),  # with comments=None, "#" is text
        # read otherwise, so the row loop reads them
        (HEADER + "im0\x00,1,0.5,0,0,1,1\n", True),  # loadtxt drops the NUL
        (HEADER + "#\n" + GOOD, True),
        (HEADER + "im0,1_0,0.5,0,0,1,1\n", True),
        (HEADER + "im0,1,0.5,1_0,0,1,1\n", True),
        (HEADER + "im0,٣,0.5,0,0,1,1\n", True),
        (HEADER + "im0,1,0.5,٣,0,1,1\n", True),
        (HEADER + "im0,①,0.5,0,0,1,1\n", True),  # loadtxt takes it as 1
        (HEADER + "im0,\x1c1,0.5,0,0,1,1\n", True),  # whitespace to loadtxt only
        (HEADER + "im0,1,0.5,Infinity,0,1,1\n", True),
        # an integer written as a float: numpy 1.x truncates it with a warning
        (HEADER + "im0,1.0,0.5,0,0,1,1\n", True),
        (HEADER + "im0,2.5,0.5,0,0,1,1\n", True),
        (HEADER + "im0,1e0,0.5,0,0,1,1\n", True),
        (HEADER + "i" * 32 + ",1,0.5,0,0,1,1\n", True),
        (HEADER + "i" * 33 + ",1,0.5,0,0,1,1\n", True),  # loadtxt cuts the id
        (HEADER + GOOD + " \n", True),
        (HEADER + GOOD + "\t\n", True),
        (HEADER + '"im0",1,0.5,0,0,1,1\n', True),
        (HEADER + "imé,1,0.5,0,0,1,1\n", True),
        (HEADER, True),
        (HEADER + "\r\n\n", True),
        (HEADER.rstrip("\n"), True),
        (HEADER.replace("\n", "\r") + GOOD, True),
        (HEADER.replace(",", "\r,", 1) + GOOD, True),  # csv ends the header at the CR
        (HEADER + "im0,1,1.5,0,0,1,1\n", True),
        (HEADER + GOOD * 3 + "im0,1,0.5,0,0,1\n", True),
    ],
)
def test_columns_read_each_text_as_the_definition_through_the_path_it_names(monkeypatch, text, row_loop):
    calls = []
    row_reader = evaluation.read_detections_csv
    monkeypatch.setattr(
        evaluation, "read_detections_csv", lambda stream: calls.append(1) or row_reader(stream)
    )
    assert outcome(read_detection_columns, text) == outcome(ref.read_detections_csv, text)
    assert bool(calls) == row_loop


def test_a_loadtxt_deprecation_warning_sends_the_text_through_the_row_loop(monkeypatch):
    # As numpy 1.x reads "2.5" into an integer field: truncated, with a warning.
    loadtxt = np.loadtxt

    def truncating(stream, *args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        return loadtxt(io.BytesIO(stream.read().replace(b"2.5", b"2")), *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", truncating)
    text = HEADER + "im0,2.5,0.5,0,0,1,1\n"
    expected = "FormatError: line 2: invalid literal for int() with base 10: '2.5'"
    assert outcome(ref.read_detections_csv, text) == expected
    assert outcome(read_detection_columns, text) == expected


LONG_ID = "i" * 200_000  # past csv's field size limit, 131,072 characters


@pytest.mark.parametrize(
    "body,message",
    [
        (LONG_ID + ",1,0.5,0,0,1,1\n", "line 2: field larger than field limit (131072)"),
        (GOOD + "\n" + GOOD + LONG_ID + ",1,0.5,0,0,1,1\n", "line 5: field larger than field limit (131072)"),
        ('"im0",1,0.5,0,0,1,1\n"' + LONG_ID + '",1,0.5,0,0,1,1\n', "line 3: field larger than field limit (131072)"),
    ],
    ids=["first-row", "after-a-blank-line", "quoted"],
)
def test_a_field_past_the_csv_limit_is_a_format_error_naming_its_line(body, message):
    expected = outcome(ref.read_detections_csv, HEADER + body)
    assert expected == "csv.Error: field larger than field limit (131072)"
    assert outcome(read_detections_csv, HEADER + body) == f"FormatError: {message}"
    assert outcome(read_detection_columns, HEADER + body) == f"FormatError: {message}"


@pytest.mark.parametrize(
    "text,message",
    [
        (HEADER + GOOD + "im0,1,0.5\r,0,0,1,1\n", "line 3: new-line character seen in unquoted field"),
        (HEADER.replace(",", "\r,", 1) + GOOD, "line 1: new-line character seen in unquoted field"),
    ],
    ids=["row", "header"],
)
def test_a_lone_cr_without_newline_translation_is_a_format_error_naming_its_line(text, message):
    # Not opened with newline="", csv sees the CR inside a row.
    assert outcome(ref.read_detections_csv, text, newline="\n").startswith("csv.Error: new-line")
    assert outcome(read_detections_csv, text, newline="\n").startswith(f"FormatError: {message}")
    # The columnar reader splits the text read whole as newline="" splits it.
    assert outcome(read_detection_columns, text, newline="\n") == outcome(
        ref.read_detections_csv, text
    )


# --- the greedy matching --------------------------------------------------------------

# The operating point's threshold, then MAP_RANGE_THRESHOLDS: one pass each.
PASS_THRESHOLDS = (0.45, *evaluation.MAP_RANGE_THRESHOLDS)
# IoUs drawn for a block: values on a threshold (0.5 and 0.75 among them),
# repeated values for ties, and values below every threshold.
IOUS = (0.0, 0.2, 0.45, 0.5, 0.5, 0.55, 0.6, 0.7, 0.75, 0.75, 0.8, 0.9, 0.95, 1.0)


def resolve_and_greedy(n_det, n_gt, overlap, eligible):
    """Per pass, the pairs ``_resolve`` takes with all passes stacked, and
    those ``_greedy`` takes from that pass alone, both sorted. ``eligible``
    holds per pass the pairs the pass may use (retained, same category)."""
    pair_det, pair_gt = evaluation._pairs(np.array(n_det), np.array(n_gt))
    overlap = np.array(overlap, dtype=np.float64)
    candidates = [
        np.flatnonzero((overlap >= t) & ok) for t, ok in zip(PASS_THRESHOLDS, eligible)
    ]
    passes = np.repeat(np.arange(len(candidates)), [c.size for c in candidates])
    pairs = np.concatenate(candidates)
    won = evaluation._resolve(
        passes * sum(n_det) + pair_det[pairs], passes * sum(n_gt) + pair_gt[pairs], overlap[pairs]
    )
    resolved = [sorted(pairs[won[passes[won] == p]].tolist()) for p in range(len(candidates))]
    greedy = [sorted(ref._greedy(c, pair_det, pair_gt, overlap).tolist()) for c in candidates]
    return resolved, greedy


def every_pass(pairs):
    return [np.ones(pairs, dtype=bool)] * len(PASS_THRESHOLDS)


@pytest.mark.parametrize(
    "n_det,n_gt,overlap,taken",
    [
        # Equal IoUs: the first ground truth.
        ([1], [3], [0.7, 0.7, 0.7], [0]),
        ([2], [2], [0.6, 0.6, 0.6, 0.6], [0, 3]),
        # Several detections on one ground truth: the first detection.
        ([3], [1], [0.6, 0.9, 0.9], [0]),
        # A chain: detection 0 takes ground truth 0, so 1 takes 1, so 2 takes 2.
        ([3], [3], [0.9, 0.6, 0.0, 0.8, 0.7, 0.0, 0.0, 0.9, 0.5], [0, 4, 8]),
        # A longer chain: each detection blocks the next one until it resolves.
        ([4], [4], [0.9, 0.8, 0, 0, 0.9, 0.8, 0.7, 0, 0, 0.9, 0.8, 0.7, 0, 0, 0.9, 0.8], [0, 5, 10, 15]),
        # An IoU exactly at the threshold is a candidate; just below is not.
        ([2], [1], [0.45, 0.44999999999999996], [0]),
        # Two images in one block share no ground truth.
        ([2, 1], [1, 1], [0.5, 0.9, 0.7], [0, 2]),
    ],
)
def test_resolve_takes_the_pairs_greedy_takes_in_fixed_blocks(n_det, n_gt, overlap, taken):
    resolved, greedy = resolve_and_greedy(n_det, n_gt, overlap, every_pass(len(overlap)))
    assert resolved == greedy
    assert resolved[0] == taken  # the operating point's pass, at 0.45


def test_resolve_takes_the_pairs_greedy_takes_pass_by_pass():
    rng = random.Random(4242)
    for _ in range(400):
        images = rng.randint(1, 5)
        n_det = [rng.randint(0, 7) for _ in range(images)]
        n_gt = [rng.randint(0, 5) for _ in range(images)]
        pairs = sum(d * g for d, g in zip(n_det, n_gt))
        overlap = [
            rng.choice(IOUS) if rng.random() < 0.7 else rng.uniform(0.4, 1.0) for _ in range(pairs)
        ]
        # Pass 0 keeps the retained detections' pairs, the others the
        # same-category ones; in a third of the blocks every pair is eligible.
        retained = [rng.random() < 0.8 for _ in range(sum(n_det))]
        pair_det, _ = evaluation._pairs(np.array(n_det), np.array(n_gt))
        same = np.array([rng.random() < 0.7 for _ in range(pairs)], dtype=bool)
        eligible = [np.array(retained, dtype=bool)[pair_det]] + [same] * (len(PASS_THRESHOLDS) - 1)
        if rng.random() < 1 / 3:
            eligible = every_pass(pairs)
        resolved, greedy = resolve_and_greedy(n_det, n_gt, overlap, eligible)
        assert resolved == greedy, (n_det, n_gt, overlap)

