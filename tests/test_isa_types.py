"""Constructor type-strictness for the op vocabulary.

A float address silently mis-simulates (it never matches the int key a
producer filled), so every constructor must reject non-int operands at
construction time with an error naming the op and operand — not deep
inside an engine run.
"""

import re

import numpy as np
import pytest

from repro.arch.memory import AddressSpace
from repro.sim import isa


class TestRejections:
    @pytest.mark.parametrize("bad", [1.0, 2.5, "3", None, [4]])
    def test_load_rejects_non_int_addr(self, bad):
        with pytest.raises(TypeError, match="L addr"):
            isa.load(bad)

    def test_store_rejects_float(self):
        with pytest.raises(TypeError, match="S addr must be an int, got float"):
            isa.store(16.0)

    def test_load_dep_rejects_float(self):
        with pytest.raises(TypeError, match="LD addr"):
            isa.load_dep(0.5)

    def test_compute_rejects_float(self):
        with pytest.raises(TypeError, match="C k"):
            isa.compute(1.5)

    def test_fetch_add_rejects_bad_addr_and_inc(self):
        with pytest.raises(TypeError, match="FA addr"):
            isa.fetch_add("x", 1)
        with pytest.raises(TypeError, match="FA inc"):
            isa.fetch_add(8, 1.0)

    def test_sync_ops_reject_bad_addr(self):
        with pytest.raises(TypeError, match="SLE addr"):
            isa.sync_load_consume(None)
        with pytest.raises(TypeError, match="SLF addr"):
            isa.sync_load_peek(2.0)
        with pytest.raises(TypeError, match="SSF addr"):
            isa.sync_store(2.0, 5)

    def test_bool_is_rejected_despite_subclassing_int(self):
        with pytest.raises(TypeError, match="S addr must be an int, got bool"):
            isa.store(True)
        with pytest.raises(TypeError, match="C k must be an int, got bool"):
            isa.compute(False)

    def test_barrier_and_phase_require_str(self):
        with pytest.raises(TypeError, match="B barrier_id"):
            isa.barrier(0)
        with pytest.raises(TypeError, match="P name"):
            isa.phase(7)

    def test_message_repr_includes_value(self):
        with pytest.raises(TypeError, match=r"got str \('oops'\)"):
            isa.load("oops")


class TestAccepted:
    def test_plain_ints(self):
        assert isa.load(5) == ("L", 5)
        assert isa.store(0) == ("S", 0)
        assert isa.fetch_add(3, -1) == ("FA", 3, -1)

    @pytest.mark.parametrize("np_int", [np.int32(7), np.int64(7), np.uint16(7)])
    def test_numpy_integer_scalars_normalize_to_int(self, np_int):
        op = isa.load(np_int)
        assert op == ("L", 7)
        assert type(op[1]) is int

    def test_sync_store_value_is_unconstrained(self):
        payload = {"any": "object"}
        assert isa.sync_store(4, payload) == ("SSF", 4, payload)

    def test_compute_default(self):
        assert isa.compute() == ("C", 1)


def _rejection(op, operand, value):
    """The exact message a constructor raises for ``value``, anchored."""
    if isinstance(value, bool):
        msg = f"{op} {operand} must be an int, got bool"
    else:
        msg = f"{op} {operand} must be an int, got {type(value).__name__} ({value!r})"
    return "^" + re.escape(msg) + "$"


_PLAIN = [
    (isa.compute, "C", "k"),
    (isa.load, "L", "addr"),
    (isa.load_dep, "LD", "addr"),
    (isa.store, "S", "addr"),
]
_BAD = [True, False, np.bool_(True), 2.5, np.float64(3.0), "7"]


class TestFastPaths:
    """Exact ints return early; everything else is still fully validated."""

    @pytest.mark.parametrize("ctor, tag, operand", _PLAIN)
    def test_exact_int_comes_back_as_the_same_object(self, ctor, tag, operand):
        x = int("1" * 30)  # a fresh, non-interned int object
        op = ctor(x)
        assert op == (tag, x)
        assert op[1] is x

    def test_fetch_add_exact_ints_come_back_as_the_same_objects(self):
        addr, inc = int("2" * 30), -int("3" * 30)
        op = isa.fetch_add(addr, inc)
        assert op == ("FA", addr, inc)
        assert op[1] is addr and op[2] is inc

    @pytest.mark.parametrize("bad", _BAD, ids=repr)
    @pytest.mark.parametrize("ctor, tag, operand", _PLAIN)
    def test_plain_ops_reject_with_unchanged_messages(self, ctor, tag, operand, bad):
        with pytest.raises(TypeError, match=_rejection(tag, operand, bad)):
            ctor(bad)

    @pytest.mark.parametrize("bad", _BAD, ids=repr)
    def test_fetch_add_rejects_with_unchanged_messages(self, bad):
        with pytest.raises(TypeError, match=_rejection("FA", "addr", bad)):
            isa.fetch_add(bad, 1)
        with pytest.raises(TypeError, match=_rejection("FA", "inc", bad)):
            isa.fetch_add(8, bad)


class TestAllocationAddr:
    """``Allocation.addr``: plain-int fast path, full checks otherwise."""

    @pytest.fixture
    def alloc(self):
        space = AddressSpace()
        space.alloc("pad", 3)
        return space.alloc("rank", 10)

    @pytest.mark.parametrize("cast", [int, np.int64, np.int32, np.uint8])
    def test_integer_scalars_give_an_int_address(self, alloc, cast):
        addr = alloc.addr(cast(7))
        assert addr == alloc.base + 7
        assert type(addr) is int

    @pytest.mark.parametrize("cast", [int, np.int64])
    @pytest.mark.parametrize("index", [-1, 10])
    def test_out_of_bounds_raises(self, alloc, cast, index):
        msg = f"index {index} out of bounds for allocation 'rank' of length 10"
        with pytest.raises(IndexError, match="^" + re.escape(msg) + "$"):
            alloc.addr(cast(index))

    @pytest.mark.parametrize(
        "bad", [True, False, np.bool_(True), 2.7, 0.0, np.float64(2.0), np.float32(1.0)],
        ids=repr,
    )
    def test_non_integer_scalars_raise(self, alloc, bad):
        msg = (
            f"index into allocation 'rank' must be an int,"
            f" got {type(bad).__name__} ({bad!r})"
        )
        with pytest.raises(TypeError, match="^" + re.escape(msg) + "$"):
            alloc.addr(bad)

    @pytest.mark.parametrize(
        "index", [np.array([0, 9, 4]), [0, 9, 4], np.array([0, 9, 4], dtype=np.int32)],
        ids=["int64-array", "list", "int32-array"],
    )
    def test_array_indexing_is_unchanged(self, alloc, index):
        addrs = alloc.addr(index)
        assert isinstance(addrs, np.ndarray) and addrs.dtype == np.int64
        assert addrs.tolist() == [alloc.base + 0, alloc.base + 9, alloc.base + 4]
