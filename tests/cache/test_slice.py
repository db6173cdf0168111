"""The LLC slice: tags, data, way locking, and flushing."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.slice_ import CacheSlice, LineState, WayMode
from repro.errors import CacheError, LockedWayError
from repro.params import SliceParams


def small_slice(ways: int = 4) -> CacheSlice:
    """A reduced-geometry slice so tests stay fast."""
    return CacheSlice(SliceParams(ways=ways))


LINE = os.urandom(64)


class TestGeometry:
    def test_default_capacity(self):
        cache = CacheSlice()
        assert cache.params.capacity_bytes == 1.25 * 1024 * 1024
        assert cache.sets == 1024
        assert cache.ways == 20

    def test_subarray_count_matches_table2(self):
        assert CacheSlice().params.subarray_count == 160


class TestLookupFill:
    def test_miss_then_hit(self):
        cache = small_slice()
        assert cache.lookup(3, tag=7) is None
        cache.fill(3, tag=7)
        assert cache.lookup(3, tag=7) is not None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_fill_returns_victim_when_set_full(self):
        cache = small_slice(ways=2)
        assert cache.fill(0, tag=1) is None
        assert cache.fill(0, tag=2) is None
        victim = cache.fill(0, tag=3)
        assert victim is not None
        assert victim.tag == 1  # LRU order

    def test_dirty_victim_carries_data(self):
        cache = small_slice(ways=2)
        cache.fill(0, tag=1, data=LINE, dirty=True)
        cache.fill(0, tag=2)
        victim = cache.fill(0, tag=3)
        assert victim.dirty
        assert victim.data == LINE

    def test_clean_victim_has_no_writeback(self):
        cache = small_slice(ways=2)
        cache.fill(0, tag=1, data=LINE, dirty=False)
        cache.fill(0, tag=2)
        victim = cache.fill(0, tag=3)
        assert not victim.dirty
        assert cache.stats.writebacks == 0

    def test_line_data_roundtrip(self):
        cache = small_slice()
        cache.fill(9, tag=5, data=LINE)
        way = cache.lookup(9, tag=5)
        assert cache.read_line(9, way) == LINE

    def test_write_line_marks_dirty(self):
        cache = small_slice()
        cache.fill(1, tag=1, data=bytes(64))
        way = cache.lookup(1, tag=1)
        cache.write_line(1, way, LINE)
        assert cache.line_state(1, way) is LineState.DIRTY
        assert cache.read_line(1, way) == LINE

    def test_wrong_line_size_rejected(self):
        cache = small_slice()
        cache.fill(0, tag=0, data=bytes(64))
        with pytest.raises(CacheError):
            cache.write_line(0, 0, b"short")

    def test_refused_fill_keeps_the_dirty_victim(self):
        cache = small_slice(ways=2)
        cache.fill(0, tag=1, data=LINE, dirty=True)
        cache.fill(0, tag=2)
        before = cache.stats.as_dict()
        with pytest.raises(CacheError):
            cache.fill(0, tag=3, data=b"short")
        assert cache.stats.as_dict() == before
        way_of = {cache.line_tag(0, way): way for way in range(2)}
        assert set(way_of) == {1, 2}
        assert cache.line_state(0, way_of[1]) is LineState.DIRTY
        assert cache.read_line(0, way_of[1]) == LINE

    def test_tag_wider_than_64_bits_is_refused(self):
        cache = small_slice()
        for tag in (1 << 63, -(1 << 63) - 1):
            with pytest.raises(CacheError):
                cache.fill(0, tag=tag)
        assert cache.stats.fills == 0
        cache.fill(0, tag=(1 << 63) - 1)
        assert cache.line_tag(0, cache.lookup(0, (1 << 63) - 1)) == (1 << 63) - 1

    @given(st.lists(
        st.tuples(st.integers(0, 63), st.integers(0, 15), st.booleans()),
        max_size=80,
    ))
    @settings(max_examples=25, deadline=None)
    def test_matches_reference_model(self, operations):
        """The slice agrees with a dict-of-sets LRU reference model."""
        cache = small_slice(ways=4)
        reference = {}  # set -> list of tags, LRU first
        for set_index, tag, _ in operations:
            tags = reference.setdefault(set_index, [])
            hit_expected = tag in tags
            hit_actual = cache.lookup(set_index, tag) is not None
            assert hit_actual == hit_expected
            if hit_expected:
                tags.remove(tag)
                tags.append(tag)
            else:
                cache.fill(set_index, tag)
                if len(tags) == 4:
                    tags.pop(0)
                tags.append(tag)


class TestWayLocking:
    def test_lock_removes_from_caching(self):
        cache = small_slice()
        cache.fill(0, tag=9)
        cache.lock_ways([0, 1, 2, 3], WayMode.COMPUTE)
        with pytest.raises(LockedWayError):
            cache.fill(0, tag=10)

    def test_partial_lock_keeps_cache_working(self):
        cache = small_slice()
        cache.lock_ways([2, 3], WayMode.SCRATCHPAD)
        cache.fill(0, tag=1)
        cache.fill(0, tag=2)
        victim = cache.fill(0, tag=3)
        assert victim is not None  # only 2 cache ways remain

    def test_lock_flushes_dirty_lines(self):
        cache = small_slice()
        cache.fill(5, tag=1, data=LINE, dirty=True)
        way = cache.lookup(5, tag=1)
        flushed = cache.lock_ways([way], WayMode.COMPUTE)
        dirty = [line for line in flushed if line.dirty]
        assert len(dirty) == 1
        assert dirty[0].data == LINE
        assert cache.dirty_line_count() == 0

    def test_double_lock_rejected(self):
        cache = small_slice()
        cache.lock_ways([0], WayMode.COMPUTE)
        with pytest.raises(LockedWayError):
            cache.lock_ways([0], WayMode.SCRATCHPAD)

    def test_unlock_restores_cache_mode(self):
        cache = small_slice()
        cache.lock_ways([0], WayMode.COMPUTE)
        cache.unlock_ways([0])
        assert cache.way_mode(0) is WayMode.CACHE
        assert cache.locked_ways == set()

    def test_unlock_of_a_cache_way_is_refused(self):
        cache = small_slice()
        cache.fill(0, tag=1, data=LINE, dirty=True)
        way = cache.lookup(0, tag=1)
        cache.lock_ways([3], WayMode.COMPUTE)
        with pytest.raises(LockedWayError):
            cache.unlock_ways([3, way])
        # Nothing changed: the locked way stays locked and the dirty
        # line keeps its data for a later writeback.
        assert cache.locked_ways == {3}
        assert cache.line_state(0, way) is LineState.DIRTY
        assert cache.read_line(0, way) == LINE
        assert cache.stats.writebacks == 0

    def test_unlock_clears_a_former_scratchpad(self):
        """A fill without data must not expose the scratchpad's bytes."""
        cache = small_slice()
        cache.lock_ways([0], WayMode.SCRATCHPAD)
        cache.way_subarrays(0)[0].write_row(0, 0xDEADBEEF)  # in set 0's line
        cache.unlock_ways([0])
        cache.fill(0, tag=1, dirty=True)
        assert cache.flush_way(0)[0].data == bytes(64)

    def test_retarget_clears_the_way(self):
        cache = small_slice()
        cache.lock_ways([0], WayMode.SCRATCHPAD)
        cache.way_subarrays(0)[0].write_row(0, 0xDEADBEEF)
        cache.retarget_ways([0], WayMode.COMPUTE)
        assert cache.way_subarrays(0)[0].read_row(0) == 0

    def test_way_subarrays_only_when_locked(self):
        cache = small_slice()
        with pytest.raises(LockedWayError):
            cache.way_subarrays(0)
        cache.lock_ways([0], WayMode.COMPUTE)
        subarrays = cache.way_subarrays(0)
        assert len(subarrays) == cache.params.subarrays_per_way

    def test_lock_to_cache_mode_rejected(self):
        cache = small_slice()
        with pytest.raises(CacheError):
            cache.lock_ways([0], WayMode.CACHE)


class TestFlush:
    def test_flush_way_invalidates(self):
        cache = small_slice(ways=2)
        cache.fill(0, tag=1, data=LINE, dirty=True)
        cache.fill(1, tag=2, data=LINE, dirty=False)
        flushed = cache.flush_way(0) + cache.flush_way(1)
        assert {line.tag for line in flushed} == {1, 2}
        assert cache.stats.flushed_dirty_lines == 1
        assert cache.stats.flushed_clean_lines == 1
        assert cache.lookup(0, tag=1) is None

    def test_flush_empty_way(self):
        cache = small_slice()
        assert cache.flush_way(3) == []


class TestEnergyAccounting:
    def test_line_io_charges_subarray_accesses(self):
        """A 64-byte line is 16 x 32-bit words, two in each of its way's
        eight sub-arrays, so every line transfer charges each of them 2:
        fills and writes as writes, reads and dirty readbacks as reads."""
        cache = small_slice()
        per_way = cache.params.subarrays_per_way

        def assert_charged(way, reads, writes):
            assert [(sub.reads, sub.writes) for sub in cache.subarrays] == [
                (reads, writes) if index // per_way == way else (0, 0)
                for index in range(len(cache.subarrays))
            ]

        cache.fill(0, tag=1, data=LINE)
        assert cache.subarray_access_count == 16
        way = cache.lookup(0, tag=1)
        assert_charged(way, reads=0, writes=2)
        assert cache.read_line(0, way) == LINE
        assert_charged(way, reads=2, writes=2)
        cache.write_line(0, way, LINE)
        assert_charged(way, reads=2, writes=4)
        assert cache.flush_way(way)[0].data == LINE
        assert_charged(way, reads=4, writes=4)

        # Evicting a dirty line reads it back; fills without data and
        # clean victims charge nothing.
        cache.fill(1, tag=1, data=LINE, dirty=True)
        assert cache.lookup(1, tag=1, touch=False) == way
        for tag in (2, 3, 4):
            cache.fill(1, tag=tag)
        victim = cache.fill(1, tag=5)
        assert (victim.way, victim.dirty, victim.data) == (way, True, LINE)
        assert_charged(way, reads=6, writes=6)


def _line(seed: int) -> bytes:
    return bytes((seed * 7 + offset) % 256 for offset in range(64))


class _SliceModel:
    """Pure-Python reference: per-set true LRU, dirty bits, raw bytes.

    ``stored`` mirrors the data arrays, not just valid lines: a fill
    without data leaves whatever bytes the slot last held, and only a
    lock or unlock clears a way.
    """

    def __init__(self, ways: int) -> None:
        self.ways = ways
        self.lines = {}    # (set, way) -> [tag, dirty]
        self.order = {}    # set -> ways, least recently used first
        self.stored = {}   # (set, way) -> bytes; absent means zeros
        self.locked = set()
        self.stats = dict.fromkeys(
            ("hits", "misses", "fills", "evictions", "writebacks",
             "flushed_dirty_lines", "flushed_clean_lines", "tag_accesses"),
            0,
        )

    def _touch(self, set_index, way):
        order = self.order.setdefault(set_index, list(range(self.ways)))
        order.remove(way)
        order.append(way)

    def _data(self, set_index, way):
        return self.stored.get((set_index, way), bytes(64))

    def lookup(self, set_index, tag, touch=True):
        self.stats["tag_accesses"] += 1
        for way in range(self.ways):
            line = self.lines.get((set_index, way))
            if line is not None and line[0] == tag:
                if touch:
                    self._touch(set_index, way)
                self.stats["hits"] += 1
                return way
        self.stats["misses"] += 1
        return None

    def fill(self, set_index, tag, data, dirty):
        free = [
            way for way in range(self.ways)
            if way not in self.locked and (set_index, way) not in self.lines
        ]
        if free:
            way = free[0]
        else:
            order = self.order.get(set_index, list(range(self.ways)))
            way = next(w for w in order if w not in self.locked)
        victim = None
        old = self.lines.get((set_index, way))
        if old is not None:
            self.stats["evictions"] += 1
            if old[1]:
                self.stats["writebacks"] += 1
            victim = (set_index, way, old[0], old[1],
                      self._data(set_index, way) if old[1] else b"")
        self.lines[(set_index, way)] = [tag, dirty]
        self._touch(set_index, way)
        self.stats["fills"] += 1
        if data is not None:
            self.stored[(set_index, way)] = data
        return victim

    def write(self, set_index, way, data):
        self.stored[(set_index, way)] = data
        self.lines[(set_index, way)][1] = True

    def flush(self, way):
        flushed = []
        for set_index in sorted(s for s, w in self.lines if w == way):
            tag, dirty = self.lines.pop((set_index, way))
            flushed.append((set_index, way, tag, dirty,
                            self._data(set_index, way) if dirty else b""))
            if dirty:
                self.stats["flushed_dirty_lines"] += 1
                self.stats["writebacks"] += 1
            else:
                self.stats["flushed_clean_lines"] += 1
        return flushed

    def clear_way(self, way):
        for key in [key for key in self.stored if key[1] == way]:
            del self.stored[key]


def _as_tuple(line):
    return (line.set_index, line.way, line.tag, line.dirty, line.data)


_SETS = st.integers(0, 1)
_TAGS = st.integers(-1, 5)  # -1 is also what an invalid slot stores
_WAY_LISTS = st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True)
_FILLS = st.tuples(st.just("fill"), _SETS, _TAGS, st.booleans(),
                   st.none() | st.integers(0, 255))
# Fills weigh double so sets fill up and evict between the lock churn.
_SLICE_OPS = st.one_of(
    _FILLS,
    _FILLS,
    st.tuples(st.just("lookup"), _SETS, _TAGS, st.booleans()),
    st.tuples(st.just("write"), _SETS, _TAGS, st.integers(0, 255)),
    st.tuples(st.just("lock"), _WAY_LISTS,
              st.sampled_from([WayMode.COMPUTE, WayMode.SCRATCHPAD])),
    st.tuples(st.just("unlock"), _WAY_LISTS),
    st.tuples(st.just("flush"), st.integers(0, 3)),
)


class TestSliceAgainstModel:
    @given(st.lists(_SLICE_OPS, min_size=8, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_random_sequences_match_the_model(self, operations):
        """Every return value, counter and line state tracks the model."""
        cache = small_slice(ways=4)
        model = _SliceModel(ways=4)
        touched = set()
        for op in operations:
            kind = op[0]
            if kind == "fill":
                _, set_index, tag, dirty, seed = op
                data = None if seed is None else _line(seed)
                touched.add(set_index)
                if len(model.locked) == 4:
                    with pytest.raises(LockedWayError):
                        cache.fill(set_index, tag, data, dirty=dirty)
                    continue
                victim = cache.fill(set_index, tag, data, dirty=dirty)
                expected = model.fill(set_index, tag, data, dirty)
                assert (victim and _as_tuple(victim)) == expected
            elif kind == "lookup":
                _, set_index, tag, touch = op
                touched.add(set_index)
                assert cache.lookup(set_index, tag, touch=touch) == (
                    model.lookup(set_index, tag, touch)
                )
            elif kind == "write":
                _, set_index, tag, seed = op
                touched.add(set_index)
                way = cache.lookup(set_index, tag)
                assert way == model.lookup(set_index, tag)
                if way is not None:
                    cache.write_line(set_index, way, _line(seed))
                    model.write(set_index, way, _line(seed))
            elif kind == "lock":
                _, ways, mode = op
                ways = [way for way in ways if way not in model.locked]
                if not ways:
                    continue
                flushed = cache.lock_ways(ways, mode)
                expected = []
                for way in ways:
                    expected.extend(model.flush(way))
                    model.clear_way(way)
                    model.locked.add(way)
                assert [_as_tuple(line) for line in flushed] == expected
            elif kind == "unlock":
                ways = [way for way in op[1] if way in model.locked]
                if not ways:
                    continue
                cache.unlock_ways(ways)
                for way in ways:
                    model.clear_way(way)
                    model.locked.discard(way)
            else:
                way = op[1]
                flushed = cache.flush_way(way)
                assert [_as_tuple(line) for line in flushed] == model.flush(way)
            assert cache.stats.as_dict() == model.stats
            assert cache.dirty_line_count() == sum(
                dirty for _, dirty in model.lines.values()
            )
            assert cache.locked_ways == model.locked
            for set_index in touched:
                for way in range(4):
                    line = model.lines.get((set_index, way))
                    state = cache.line_state(set_index, way)
                    if line is None:
                        assert state is LineState.INVALID
                    else:
                        assert state is (
                            LineState.DIRTY if line[1] else LineState.CLEAN
                        )
                        assert cache.line_tag(set_index, way) == line[0]
