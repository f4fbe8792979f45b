"""The detections CSV readers against their definition.

``reference_evaluation.py`` keeps the former reader verbatim. On every input
``trapeval.evaluation.read_detections_csv`` (the row loop) and
``read_detection_columns`` (``np.loadtxt`` with the row loop as fallback)
must return the same detections, every corner and confidence equal by
``float.hex`` (so -0.0 lands where it did), or raise ``FormatError`` with
the same message, line number included. The fixed inputs aim at the places
either reader can differ from the definition: blank and quoted lines, CRLF,
-0.0 and swapped corners, NaN confidence, finite corners whose sum
overflows, and each text that loadtxt reads otherwise than the row loop.
"""

from __future__ import annotations

import io
import warnings

import numpy as np
import pytest
import reference_evaluation as ref
from hypothesis import given, settings

from trapeval import evaluation
from trapeval.errors import FormatError
from trapeval.evaluation import read_detection_columns, read_detections_csv

from conftest import mutants
from test_evaluation import CSV_SYMBOLS, VALID_CSV

HEADER = "image_id,category_id,confidence,x1,y1,x2,y2\n"


def outcome(read, text: str):
    """The detections as exact values, or the error message."""
    try:
        detections = read(io.StringIO(text, newline=""))  # as the CLI opens it
    except FormatError as exc:
        return f"FormatError: {exc}"
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


def assert_same(text: str):
    expected = outcome(ref.read_detections_csv, text)
    assert outcome(read_detections_csv, text) == expected
    assert outcome(read_detection_columns, text) == expected
    return expected


@given(mutants(VALID_CSV, CSV_SYMBOLS))
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
        ('"im\n0",1,0.5,0,0,1,1\nim1,1,0.5,0,0,1\n', "FormatError: line 3: expected 7 fields, got 6"),
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
