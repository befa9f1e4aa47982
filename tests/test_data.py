"""Cohort construction, counting processes and CSV ingestion."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from oslr.data import (
    Cohort,
    Observation,
    counting_process,
    ingest_csv,
    write_csv,
)
from oslr.errors import RowValidationError, SchemaError, UsageError


def test_observation_validation():
    Observation(1.0, 1)
    Observation(0.5, 0)
    with pytest.raises(ValueError):
        Observation(0.0, 1)
    with pytest.raises(ValueError):
        Observation(-1.0, 1)
    with pytest.raises(ValueError):
        Observation(float("inf"), 1)
    with pytest.raises(ValueError):
        Observation(float("nan"), 0)
    with pytest.raises(ValueError):
        Observation(1.0, 2)


def test_cohort_basics():
    c = Cohort([(1.0, 1), (2.0, 0), (3.0, 1)], label="A")
    assert c.n == 3 and len(c) == 3
    assert c.n_events == 2
    assert c.max_time() == 3.0
    assert_array_equal(c.times, [1.0, 2.0, 3.0])
    assert_array_equal(c.events, [1.0, 0.0, 1.0])
    assert c.observations[1] == Observation(2.0, 0)
    assert "A" in repr(c)


def test_cohort_arrays_immutable():
    c = Cohort([(1.0, 1)])
    with pytest.raises(ValueError):
        c.times[0] = 5.0
    with pytest.raises(ValueError):
        c.events[0] = 0.0


def test_cohort_rejects_empty_and_invalid():
    with pytest.raises(ValueError):
        Cohort([])
    with pytest.raises(ValueError):
        Cohort([(0.0, 1)])
    with pytest.raises(ValueError):
        Cohort([(1.0, 3)])
    # non-binary events are rejected, not truncated to 0 or 1
    for event in (0.7, 1.9):
        with pytest.raises(ValueError):
            Cohort([(1.0, event)])
        with pytest.raises(ValueError):
            Cohort.from_arrays([1.0, 2.0, 3.0], [1.0, event, 0.0])


def test_from_arrays_matches_pairs():
    a = Cohort.from_arrays(np.array([2.0, 1.0]), np.array([0.0, 1.0]), "B")
    b = Cohort([(2.0, 0), (1.0, 1)], label="B")
    assert_array_equal(a.times, b.times)
    assert_array_equal(a.events, b.events)


def test_counting_process():
    c = Cohort([(1.0, 1), (2.0, 0), (3.0, 1)])
    # N counts events with X <= t, Y counts X >= t
    assert counting_process(c, 0.5) == (0, 3)
    assert counting_process(c, 1.0) == (1, 3)
    assert counting_process(c, 2.0) == (1, 2)
    assert counting_process(c, 2.5) == (1, 1)
    assert counting_process(c, 3.0) == (2, 1)
    assert counting_process(c, 10.0) == (2, 0)
    with pytest.raises(UsageError):
        counting_process(c, -1.0)


def test_ingest_plain(tmp_path):
    p = tmp_path / "plain.csv"
    p.write_text("time,event\n1.5,1\n2.0,0\n")
    c = ingest_csv(p)
    assert isinstance(c, Cohort)
    assert_array_equal(c.times, [1.5, 2.0])
    assert_array_equal(c.events, [1.0, 0.0])


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


@pytest.mark.parametrize(
    "row",
    ["x,1", "-1,1", "0,1", "inf,0", "2,2", "2,", "2,yes"],
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
    original = Cohort.from_arrays(times, events)
    path = tmp_path / "round.csv"
    write_csv(path, original)
    back = ingest_csv(path)
    assert_array_equal(back.times, original.times)
    assert_array_equal(back.events, original.events)


def test_csv_round_trip_grouped(tmp_path):
    groups = {
        "control": Cohort([(1.25, 1), (2.5, 0)], label="control"),
        "experimental": Cohort([(0.75, 1)], label="experimental"),
    }
    path = tmp_path / "groups.csv"
    write_csv(path, groups)
    back = ingest_csv(path)
    assert sorted(back) == ["control", "experimental"]
    assert_array_equal(back["control"].times, [1.25, 2.5])
    assert_array_equal(back["experimental"].events, [1.0])
