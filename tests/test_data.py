"""Cohort construction, counting processes and CSV ingestion."""

import csv
import pathlib

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from oslr.data import Cohort, counting_process, ingest_csv, write_csv
from oslr.errors import RowValidationError, SchemaError, UsageError

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "data"


def test_cohort_basics():
    c = Cohort([1.0, 2.0, 3.0], [1, 0, 1], label="A")
    assert c.n == 3 and len(c) == 3
    assert c.n_events == 2
    assert c.max_time() == 3.0
    assert c.times.dtype == c.events.dtype == np.float64
    assert_array_equal(c.times, [1.0, 2.0, 3.0])
    assert_array_equal(c.events, [1.0, 0.0, 1.0])
    assert "A" in repr(c)


def test_cohort_arrays_immutable():
    c = Cohort([1.0], [1])
    with pytest.raises(ValueError):
        c.times[0] = 5.0
    with pytest.raises(ValueError):
        c.events[0] = 0.0


def test_cohort_rejects_empty_and_invalid():
    with pytest.raises(ValueError):
        Cohort([], [])
    for time in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            Cohort([1.0, time], [1, 0])
    with pytest.raises(ValueError):
        Cohort([1.0], [3])
    # non-binary events are rejected, not truncated to 0 or 1
    for event in (0.7, 1.9):
        with pytest.raises(ValueError):
            Cohort([1.0], [event])
        with pytest.raises(ValueError):
            Cohort([1.0, 2.0, 3.0], [1.0, event, 0.0])
    # times and events must be 1-d and of one length
    with pytest.raises(ValueError):
        Cohort([1.0, 2.0], [1])
    with pytest.raises(ValueError):
        Cohort([[1.0, 2.0]], [[1, 0]])


def test_counting_process():
    c = Cohort([1.0, 2.0, 3.0], [1, 0, 1])
    # N counts events with X <= t, Y counts X >= t
    assert counting_process(c, 0.5) == (0, 3)
    assert counting_process(c, 1.0) == (1, 3)
    assert counting_process(c, 2.0) == (1, 2)
    assert counting_process(c, 2.5) == (1, 1)
    assert counting_process(c, 3.0) == (2, 1)
    assert counting_process(c, 10.0) == (2, 0)
    with pytest.raises(UsageError):
        counting_process(c, -1.0)


def test_counting_process_refuses_nan():
    c = Cohort([1.0, 2.0, 3.0], [1, 0, 1])
    with pytest.raises(UsageError):
        counting_process(c, float("nan"))


def test_ingest_plain(tmp_path):
    p = tmp_path / "plain.csv"
    p.write_text("time,event\n1.5,1\n2.0,0\n")
    c = ingest_csv(p)
    assert isinstance(c, Cohort)
    assert_array_equal(c.times, [1.5, 2.0])
    assert_array_equal(c.events, [1.0, 0.0])


@pytest.mark.parametrize("name", ["control.csv", "experimental.csv"])
def test_ingest_builds_arrays_without_observations(name):
    """The bundled CSVs ingest straight to float64 arrays, bit-identical to
    their rows parsed by float()."""
    with open(DATA_DIR / name, newline="") as fh:
        rows = list(csv.DictReader(fh))
    cohort = ingest_csv(DATA_DIR / name)
    assert cohort.times.tobytes() == np.array([float(r["time"]) for r in rows]).tobytes()
    assert cohort.events.tobytes() == np.array([float(r["event"]) for r in rows]).tobytes()


def test_ingest_grouped(tmp_path):
    p = tmp_path / "grouped.csv"
    p.write_text(
        "time,event,group\n1,1,control\n2,0,experimental\n3,1,control\n"
    )
    groups = ingest_csv(p)
    assert sorted(groups) == ["control", "experimental"]
    assert groups["control"].n == 2
    assert groups["control"].label == "control"
    assert groups["experimental"].n == 1


def test_ingest_matches_stripped_header_names(tmp_path):
    p = tmp_path / "spaced.csv"
    p.write_text("time, event , group\n1.5,1,a\n2.0,0,a\n")
    (cohort,) = ingest_csv(p).values()
    assert_array_equal(cohort.times, [1.5, 2.0])
    assert_array_equal(cohort.events, [1.0, 0.0])


def test_ingest_reads_a_byte_order_mark_as_no_data(tmp_path):
    """Excel writes UTF-8 CSVs that start with a byte-order mark: such a file
    ingests equal to the same rows without it, its first column included."""
    text = "time,event,group\n1.5,1,a\n2.0,0,b\n3.0,1,a\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    want, got = ingest_csv(plain), ingest_csv(marked)
    assert list(got) == list(want) == ["a", "b"]
    for label in want:
        assert got[label].times.tobytes() == want[label].times.tobytes()
        assert got[label].events.tobytes() == want[label].events.tobytes()


def test_ingest_schema_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(SchemaError):
        ingest_csv(empty)
    nocol = tmp_path / "nocol.csv"
    nocol.write_text("start,stop\n1,2\n")
    with pytest.raises(SchemaError):
        ingest_csv(nocol)
    norows = tmp_path / "norows.csv"
    norows.write_text("time,event\n")
    with pytest.raises(SchemaError):
        ingest_csv(norows)
    repeated = tmp_path / "repeated.csv"
    repeated.write_text("time,event,event\n1.0,1,0\n")
    with pytest.raises(SchemaError, match="repeated"):
        ingest_csv(repeated)


@pytest.mark.parametrize(
    "row",
    # float() reads "1_0" as 10 and the full-width "１" as 1
    ["x,1", "-1,1", "0,1", "inf,0", "2,2", "2,", "2,yes", "1.0,1,junk", "1_0,1", "１,1"],
)
def test_ingest_row_errors(tmp_path, row):
    p = tmp_path / "bad.csv"
    p.write_text(f"time,event\n1,1\n{row}\n")
    with pytest.raises(RowValidationError) as err:
        ingest_csv(p)
    # 1-based data row numbering: the bad row is the second one
    assert err.value.row == 2
    assert "row 2" in str(err.value)


def test_csv_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    times = rng.exponential(2.0, 50) + 1e-9
    events = (rng.random(50) < 0.6).astype(float)
    original = Cohort(times, events)
    path = tmp_path / "round.csv"
    write_csv(path, original)
    back = ingest_csv(path)
    assert_array_equal(back.times, original.times)
    assert_array_equal(back.events, original.events)


def test_csv_round_trip_grouped(tmp_path):
    groups = {
        "control": Cohort([1.25, 2.5], [1, 0], label="control"),
        "experimental": Cohort([0.75], [1], label="experimental"),
    }
    path = tmp_path / "groups.csv"
    write_csv(path, groups)
    back = ingest_csv(path)
    assert sorted(back) == ["control", "experimental"]
    assert_array_equal(back["control"].times, [1.25, 2.5])
    assert_array_equal(back["experimental"].events, [1.0])
