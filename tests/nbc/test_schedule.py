"""Unit tests for the schedule data structure."""

import numpy as np
import pytest

from repro.errors import ScheduleError
from repro.nbc.schedule import CombineOp, Schedule, peer_block


def test_round_and_op_construction():
    s = Schedule("demo")
    s.round().send(1, 100, tagoff=0).recv(2, 50, tagoff=1)
    s.round().copy(10)
    assert s.nrounds == 2
    assert s.count_ops() == 3
    assert s.count_ops("send") == 1
    assert s.count_ops("recv") == 1
    assert s.count_ops("copy") == 1


def test_ops_without_explicit_round_open_one():
    s = Schedule()
    s.send(0, 1)
    assert s.nrounds == 1


def test_tag_span():
    s = Schedule()
    s.round().send(1, 10, tagoff=0).recv(1, 10, tagoff=4)
    assert s.tag_span == 5


def test_tag_span_minimum_one():
    s = Schedule()
    s.round().copy(10)
    assert s.tag_span == 1


def test_total_send_bytes():
    s = Schedule()
    s.round().send(1, 100).send(2, 200)
    s.round().recv(1, 999)
    assert s.total_send_bytes() == 300


def test_round_only_closes_the_current_round():
    s = Schedule()
    s.round()
    s.round().send(0, 1)
    s.round()
    assert s.nrounds == 1


def test_ops_on_empty_blocks_are_not_recorded():
    s = Schedule()
    s.round().send(1, 0, tagoff=3, src=("send", 0, 0))
    s.round().recv(1, 0, dst=("recv", 8, 0))
    s.round().copy(0, src=("send", 0, 0), dst=peer_block("recv", 1, 0, 4))
    s.round().combine(0, src=("in", 0, 0), dst=("acc", 0, 0))
    assert (s.nrounds, s.scratch, s.user_extents) == (0, {}, {})
    # a dropped op still reserves its tag, so spans stay rank-independent
    assert s.tag_span == 4
    # a 0-byte message naming no block is a signal, and stays
    s.round().send(1, 0).recv(1, 0)
    assert s.nrounds == 1 and s.count_ops() == 2


def test_validate_rejects_negative_size():
    s = Schedule("bad")
    s.round().send(0, -1)
    with pytest.raises(ScheduleError):
        s.validate()


@pytest.mark.parametrize(
    "op,expected",
    [("sum", [5.0, 7.0]), ("prod", [4.0, 10.0]), ("max", [4.0, 5.0]), ("min", [1.0, 2.0])],
)
def test_combine_ops(op, expected):
    dst = np.array([1.0, 2.0])
    src = np.array([4.0, 5.0])
    c = CombineOp(16, None, None, dtype="float64", op=op)
    c.apply(src.view(np.uint8), dst.view(np.uint8))
    np.testing.assert_array_equal(dst, expected)


def test_combine_unknown_op_rejected():
    with pytest.raises(ScheduleError):
        CombineOp(8, None, None, op="xor")
