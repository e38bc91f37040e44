"""Memory spaces, allocation, and array handles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AddressError, AllocationError
from repro.machine.engine import make_warp_contexts
from repro.machine.memory import MemorySpace
from repro.machine.warp import full_mask

from conftest import make_dmm


class TestAllocation:
    def test_sequential_bases(self):
        space = MemorySpace("m")
        a = space.alloc(10, "a")
        b = space.alloc(5, "b")
        assert a.base == 0 and a.size == 10
        assert b.base == 10 and b.size == 5
        assert space.used == 15

    def test_alignment(self):
        space = MemorySpace("m")
        space.alloc(3, "a")
        b = space.alloc_aligned(4, 8, "b")
        assert b.base == 8

    def test_alignment_noop_when_aligned(self):
        space = MemorySpace("m")
        space.alloc(8, "a")
        b = space.alloc_aligned(4, 8, "b")
        assert b.base == 8

    def test_exhaustion(self):
        space = MemorySpace("m", capacity=16)
        space.alloc(10)
        with pytest.raises(AllocationError):
            space.alloc(10)

    def test_zero_size_rejected(self):
        space = MemorySpace("m")
        with pytest.raises(AllocationError):
            space.alloc(0)

    def test_bad_capacity(self):
        with pytest.raises(AllocationError):
            MemorySpace("m", capacity=0)


class TestArrayHandle:
    def test_address_translation(self):
        space = MemorySpace("m")
        space.alloc(7)
        arr = space.alloc(10, "x")
        addrs = arr.addresses(np.array([0, 3, 9]))
        assert addrs.tolist() == [7, 10, 16]

    def test_bounds_checked(self):
        space = MemorySpace("m")
        arr = space.alloc(10)
        with pytest.raises(AddressError):
            arr.addresses(np.array([10]))
        with pytest.raises(AddressError):
            arr.addresses(np.array([-1]))

    def test_set_and_to_numpy_roundtrip(self):
        space = MemorySpace("m")
        arr = space.alloc(5, "x")
        arr.set([1.0, 2.0, 3.0, 4.0, 5.0])
        assert arr.to_numpy().tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_fill(self):
        space = MemorySpace("m")
        arr = space.alloc(4)
        arr.fill(7.5)
        assert (arr.to_numpy() == 7.5).all()

    def test_set_scalar_broadcasts(self):
        space = MemorySpace("m")
        arr = space.alloc(3)
        arr.set(2.0)
        assert (arr.to_numpy() == 2.0).all()

    def test_set_wrong_size(self):
        space = MemorySpace("m")
        arr = space.alloc(3)
        with pytest.raises(AddressError):
            arr.set([1.0, 2.0])

    def test_len(self):
        space = MemorySpace("m")
        assert len(space.alloc(12)) == 12

    def test_arrays_are_disjoint(self):
        space = MemorySpace("m")
        a = space.alloc(4, "a")
        b = space.alloc(4, "b")
        a.fill(1.0)
        b.fill(2.0)
        assert (a.to_numpy() == 1.0).all()
        assert (b.to_numpy() == 2.0).all()


class TestRawAccess:
    def test_load_store(self):
        space = MemorySpace("m")
        space.alloc(8)
        space.store(np.array([1, 3]), np.array([10.0, 30.0]))
        assert space.load(np.array([1, 3])).tolist() == [10.0, 30.0]

    def test_duplicate_store_first_wins(self):
        """Arbitrary-CRCW: the first (lowest-lane) value is kept."""
        space = MemorySpace("m")
        space.alloc(4)
        space.store(np.array([2, 2, 2]), np.array([5.0, 6.0, 7.0]))
        assert space.load(np.array([2]))[0] == 5.0

    def test_empty_store_noop(self):
        space = MemorySpace("m")
        space.alloc(4)
        space.store(np.array([], dtype=np.int64), np.array([]))
        assert (space.load(np.arange(4)) == 0).all()

    def test_growth_preserves_data(self):
        space = MemorySpace("m")
        a = space.alloc(4)
        a.fill(3.0)
        space.alloc(10_000)  # force backing-store growth
        assert (a.to_numpy() == 3.0).all()


# ---------------------------------------------------------------------------
# Bounds-check parity: every way a kernel addresses an array checks its
# indices against one reference, the plain [0, size) test in Python ints.
# ---------------------------------------------------------------------------

SIZE = 10
LANES = 4
INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1

#: Indices near both bounds, the int64 extremes, and anything between.
indices = st.one_of(
    st.integers(-3, SIZE + 2),
    st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, SIZE, INT64_MAX]),
    st.integers(INT64_MIN, INT64_MAX),
)
#: A lane index: one Python int for every lane, or one per lane.
lane_indices = st.one_of(indices, st.lists(indices, min_size=LANES,
                                           max_size=LANES))
#: No mask, the shared all-lanes mask, or any per-lane mask.
masks = st.one_of(st.none(), st.just("full"),
                  st.lists(st.booleans(), min_size=LANES, max_size=LANES))


def _handle():
    space = MemorySpace("m")
    space.alloc(7)
    return space.alloc(SIZE, "x")


def _warp():
    return make_warp_contexts(LANES, LANES)[0]


def _reference(arr, idx):
    """``(addresses, None)`` for in-range ``idx``, else ``(None, the
    AddressError's message)``."""
    idx = [int(i) for i in idx]
    if any(not 0 <= i < arr.size for i in idx):
        return None, (f"index out of range for array {arr.describe()}: "
                      f"min={min(idx)}, max={max(idx)}, size={arr.size}")
    return [arr.base + i for i in idx], None


def _assert_checked(make, arr, idx):
    """``make()`` returns the addresses of ``idx`` or raises the
    reference's AddressError."""
    want, message = _reference(arr, idx)
    if message is None:
        assert np.ravel(make()).tolist() == want
    else:
        with pytest.raises(AddressError) as caught:
            make()
        assert str(caught.value) == message


def _lanes(idx, mask):
    """The vector and mask a kernel passes, and the indices of the lanes
    that take part."""
    vector = idx if isinstance(idx, int) else np.array(idx, dtype=np.int64)
    every = [idx] * LANES if isinstance(idx, int) else idx
    if mask is None or mask == "full":
        return vector, None if mask is None else full_mask(LANES), every
    taking_part = [i for i, on in zip(every, mask) if on]
    return vector, np.array(mask), taking_part


class TestBoundsCheck:
    @given(st.lists(indices, max_size=6))
    def test_addresses_of_a_vector(self, idx):
        arr = _handle()
        _assert_checked(
            lambda: arr.addresses(np.array(idx, dtype=np.int64)), arr, idx)
        _assert_checked(lambda: arr.addresses(idx), arr, idx)

    @given(indices)
    def test_addresses_of_a_python_int(self, i):
        arr = _handle()
        _assert_checked(lambda: arr.addresses(i), arr, [i])

    @given(lane_indices, masks)
    def test_read_and_write_check_the_lanes_that_take_part(self, idx, mask):
        arr, warp = _handle(), _warp()
        vector, m, taking_part = _lanes(idx, mask)
        values = np.arange(LANES, dtype=np.float64)
        _assert_checked(lambda: warp.read(arr, vector, mask=m).addresses,
                        arr, taking_part)
        _assert_checked(
            lambda: warp.write(arr, vector, values, mask=m).addresses,
            arr, taking_part)

    @given(st.lists(st.lists(indices, min_size=LANES, max_size=LANES),
                    min_size=1, max_size=3))
    def test_ranges_check_every_round(self, rows):
        arr, warp = _handle(), _warp()
        matrix = np.array(rows, dtype=np.int64)
        every = [i for row in rows for i in row]
        _assert_checked(lambda: warp.read_range(arr, matrix).addresses,
                        arr, every)
        _assert_checked(
            lambda: warp.write_range(arr, matrix,
                                     np.zeros(matrix.shape)).addresses,
            arr, every)


@pytest.mark.parametrize("mode", ["event", "batch", "replay"])
@settings(max_examples=40, deadline=None)
@given(idx=st.one_of(st.integers(0, SIZE - 1),
                     st.lists(st.integers(0, SIZE - 1), min_size=LANES,
                              max_size=LANES)),
       mask=masks,
       off=st.lists(indices, min_size=LANES, max_size=LANES))
def test_masked_off_lanes_read_zero(mode, idx, mask, off):
    """A read delivers each lane taking part its cell and every other
    lane 0, on every evaluator."""
    on = mask if isinstance(mask, list) else [True] * LANES
    if not isinstance(idx, int):
        # A masked-off lane's index is never checked: any int64 will do.
        idx = [i if flag else o for i, flag, o in zip(idx, on, off)]
    vector, m, _ = _lanes(idx, mask)
    eng = make_dmm(width=LANES, mode=mode)
    src, out = eng.alloc(SIZE), eng.alloc(LANES)
    cells = np.arange(1.0, SIZE + 1.0)
    src.set(cells)

    def prog(warp):
        values = yield warp.read(src, vector, mask=m)
        yield warp.write(out, warp.lanes, values)

    report = eng.launch(prog, LANES)
    assert report.engine != "replay-refused"
    every = [idx] * LANES if isinstance(idx, int) else idx
    want = [cells[i] if flag else 0.0 for i, flag in zip(every, on)]
    assert out.to_numpy().tolist() == want
