"""Every reader of an input file names that file in each error it raises.

The command line prints a reader's ``ValueError`` as it stands, so a
message that did not start with the path would leave the user to guess
which of several inputs is at fault.  Each reader below is given files
that are malformed in different ways, one of them not UTF-8, and must
raise ``ValueError`` whose message starts with ``str(path)``.
"""

import json

import pytest

from volseg.analysis import load_rate_events
from volseg.calendar import load_holidays
from volseg.cluster import read_assignment
from volseg.ingest import series_from_csv, series_from_json
from volseg.segmenter import TABLE_COLUMNS, read_segment_table

NOT_UTF8 = b"\xff\xfe\n"
ROW = {c: "" for c in TABLE_COLUMNS} | {
    "m": 1, "start": 1, "end": 20, "duration": 20, "mean": 0.0, "mean_err": 0.0, "stdev": 1e-3, "stdev_err": 0.0,
}
ASSIGNMENT_HEAD = "segment,cluster,color,phase\n"

READERS = {
    "series_from_json": (
        "BM.json",
        series_from_json,
        "malformed series (",
        {
            "not-json": "{",
            "lacks-values": json.dumps({"sector": "BM", "timestamps": []}),
            "not-an-object": "[1]",
            "non-positive-level": json.dumps(
                {"sector": "BM", "timestamps": ["2006-01-02T14:30:00"], "values": ["-1.0"]}
            ),
            "not-utf8": NOT_UTF8,
        },
    ),
    "series_from_csv": (
        "BM.csv",
        series_from_csv,
        "malformed series (",
        {
            "bad-value": "timestamp,value\n2006-01-02T14:30:00,x\n",
            "lacks-timestamp": "time,value\n2006-01-02T14:30:00,1.0\n",
            "not-utf8": NOT_UTF8,
        },
    ),
    "read_segment_table": (
        "BM.json",
        read_segment_table,
        "",
        {
            "no-rows": json.dumps({"sector": "BM", "rows": []}),
            "lacks-stdev": json.dumps({"rows": [{k: v for k, v in ROW.items() if k != "stdev"}]}),
            "bad-duration": json.dumps({"rows": [dict(ROW, duration=21)]}),
            "not-json": "{",
            "not-utf8": NOT_UTF8,
        },
    ),
    "read_assignment": (
        "BM.assignment.csv",
        lambda path: read_assignment(path, 2),
        "malformed assignment (",
        {
            "lacks-cluster": "segment,color,phase\n1,blue,growth\n2,red,crash\n",
            "bad-id": ASSIGNMENT_HEAD + "1,0,blue,growth\n2,x,red,crash\n",
            "unknown-color": ASSIGNMENT_HEAD + "1,0,blue,growth\n2,1,purple,crash\n",
            "wrong-row-count": ASSIGNMENT_HEAD + "1,0,blue,growth\n",
            "id-too-high": ASSIGNMENT_HEAD + "1,0,blue,growth\n2,2,red,crash\n",
            "two-colors": ASSIGNMENT_HEAD + "1,0,blue,growth\n2,0,red,crash\n",
            "wrong-phase": ASSIGNMENT_HEAD + "1,0,blue,growth\n2,1,red,growth\n",
            "not-utf8": NOT_UTF8,
        },
    ),
    "load_holidays": (
        "holidays.txt",
        load_holidays,
        "line ",
        {"bad-date": "2006-01-02\n2006-13-01\n", "not-utf8": NOT_UTF8},
    ),
    "load_rate_events": (
        "events.csv",
        load_rate_events,
        "",
        {
            "lacks-change": "date,new_rate\n2006-01-05,4.5\n",
            "bad-cell": "date,change,new_rate\n2006-01-05,x,4.5\n",
            "broken-chain": "date,change,new_rate\n2006-01-05,-0.5,4.5\n2006-02-05,-0.5,3.0\n",
            "not-utf8": NOT_UTF8,
        },
    ),
}
CASES = [(reader, case) for reader, (*_, cases) in READERS.items() for case in cases]


@pytest.mark.parametrize("reader, case", CASES, ids=[f"{r}-{c}" for r, c in CASES])
def test_reader_error_starts_with_the_path(tmp_path, reader, case):
    name, read, kind, cases = READERS[reader]
    content = cases[case]
    path = tmp_path / name
    (path.write_bytes if isinstance(content, bytes) else path.write_text)(content)
    with pytest.raises(ValueError) as info:
        read(path)
    message = str(info.value)
    assert message.startswith(f"{path}: "), message
    if case != "not-utf8":
        assert message.startswith(f"{path}: {kind}"), message


@pytest.mark.parametrize("reader", ["series_from_json", "series_from_csv", "read_segment_table"])
def test_undecodable_file_is_malformed_with_the_decode_error(tmp_path, reader):
    # the read sits inside the block that wraps parse errors, so the
    # decode error keeps its type in the message
    name, read, _, _ = READERS[reader]
    path = tmp_path / name
    path.write_bytes(NOT_UTF8)
    what = "segment table" if reader == "read_segment_table" else "series"
    with pytest.raises(ValueError) as info:
        read(path)
    assert str(info.value).startswith(f"{path}: malformed {what} (UnicodeDecodeError: 'utf-8' codec can't decode")
