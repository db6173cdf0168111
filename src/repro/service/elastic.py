"""Elastic cache/compute way partitioning for the serving layer.

The paper's ways are statically cache *or* compute; this module makes
the split dynamic, the way ARCANE makes cache/accelerator partitioning
a runtime, software-driven decision.  An :class:`ElasticPartitioner`
sits between the service's wave dispatch and the per-slice CC Ctrls:

* between waves it *grows* the compute-way allocation of a slice under
  queue pressure (queue depth, arrival rate, deadline slack) and
  *shrinks* it — ultimately returning every locked way to the cache
  via ``CacheSlice.unlock_ways`` — when the slice idles;
* a wave *leases* its slices warm: the locked ways and the resident
  program survive from wave to wave, so a repeat program costs
  nothing and a different program is swapped by a **live reprogram**
  (``ComputeClusterController.program`` on the warm slice) billed only
  the ConfigImage delta instead of a full teardown→setup→program cycle;
* every transition is billed the paper's costs — DRAM flush time for
  dirty lines entering a locked way, ``config_time_s`` for the delta
  bitstream, and flush/eviction energy from :mod:`repro.power` — and a
  hysteresis band (high/low water marks plus a per-slice dwell time)
  keeps the policy from thrashing;
* an energy-aware placement hint (:func:`shape_choices` /
  :func:`energy_shape_hint`) evaluates candidate shapes — few wide-MCC
  tiles at 3 GHz vs many small tiles at 4 GHz — and caps growth at the
  smallest allocation that achieves peak items/s-per-watt, so the
  policy never locks ways that only add leakage.

A fixed split is the degenerate policy: :meth:`ElasticConfig.pinned`
allows one shape and no idle window, so every lease cold-sets-up its
slices and every check-in tears them down — the paper's
lock → run → unlock per wave, billed on the same books.

Thread model: the partitioner has one internal lock and is a *leaf* —
it never calls back into the service, so the service lock (or the pool
lock) may be held while calling in, never the reverse.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..errors import ServiceError
from ..folding.schedule import FoldingSchedule
from ..freac.ccctrl import ControllerState
from ..freac.compute_slice import SlicePartition
from ..freac.device import FreacDevice
from ..freac.timing import kernel_timing
from ..params import FreacClocking
from ..power.energy import EnergyModel
from .placement import Placement


#: Hysteresis band on ``load``: growth needs at least ``HIGH_WATER``,
#: a shrink at most ``LOW_WATER``; a load in between holds the shape.
HIGH_WATER = 1.0
LOW_WATER = 0.5
#: Queued jobs that justify one more way pair of compute.
GROW_DEPTH_PER_STEP = 2
#: Arrivals are converted to expected queue growth over this window.
ARRIVAL_HORIZON_S = 0.05
#: Jobs whose deadline slack falls below this boost the load.
DEADLINE_SLACK_S = 0.25
#: Latency of re-steering one way's allocation registers (drowsy wake +
#: tag-mode update, ~8 cycles at 4 GHz); guarantees every resize has a
#: nonzero billed cost even when no dirty lines needed flushing.
WAY_SWITCH_S = 2e-9


@dataclass(frozen=True)
class ElasticConfig:
    """Tuning knobs of the elastic policy (picklable for shards).

    ``min_compute_ways``/``max_compute_ways`` bound the per-slice
    allocation; growth jumps to the load's desired shape while shrink
    steps down one way-pair at a time.  The hysteresis band is
    ``LOW_WATER < load < HIGH_WATER`` (no change inside it) plus
    ``min_dwell_s`` between resizes of the same slice.  A slice idle
    for ``idle_release_s`` is torn down entirely, returning its ways
    to the cache; at 0 that happens at check-in.
    """

    min_compute_ways: int = 2
    max_compute_ways: int = 16
    min_dwell_s: float = 0.02
    idle_release_s: float = 0.25
    #: Cap growth at the most items/s-per-watt-efficient shape.
    energy_aware: bool = True

    def __post_init__(self) -> None:
        if self.min_compute_ways < 2 or self.min_compute_ways % 2:
            raise ServiceError("min_compute_ways must be an even count >= 2")
        if self.max_compute_ways % 2:
            raise ServiceError("max_compute_ways must be even")
        if self.max_compute_ways < self.min_compute_ways:
            raise ServiceError("max_compute_ways < min_compute_ways")

    @classmethod
    def pinned(cls, compute_ways: int) -> "ElasticConfig":
        """The static policy: one shape, released at every check-in."""
        if compute_ways < 2:
            raise ServiceError(
                f"a static partition needs compute ways, not {compute_ways}"
            )
        return cls(min_compute_ways=compute_ways,
                   max_compute_ways=compute_ways,
                   idle_release_s=0.0, energy_aware=False)

    def target_compute_ways(
        self, current: int, load: float, cap: int
    ) -> int:
        """The policy core: next allocation for one slice.

        ``load`` is queued-work pressure in grow steps (1.0 == one
        more way pair's worth).  Growth happens only above the high
        water mark and jumps to the desired shape; shrink happens only
        below the low water mark and steps down one pair, so a load
        oscillating inside the band never moves the allocation.
        """
        desired = self.min_compute_ways + 2 * int(load)
        desired = max(self.min_compute_ways, min(desired, cap))
        if desired > current and load >= HIGH_WATER:
            return desired
        if desired < current and load <= LOW_WATER:
            return max(current - 2, self.min_compute_ways)
        return current


@dataclass(frozen=True)
class ShapeChoice:
    """One candidate accelerator shape and its modelled efficiency."""

    compute_ways: int
    tile_mccs: int
    tiles: int
    clock_hz: float
    items_per_s: float
    watts: float
    items_per_joule: float


def shape_choices(
    schedule: FoldingSchedule,
    *,
    scratchpad_ways: int,
    total_ways: int = 20,
    items: int = 256,
    min_compute_ways: int = 2,
    max_compute_ways: Optional[int] = None,
    clocking: Optional[FreacClocking] = None,
    energy: Optional[EnergyModel] = None,
) -> List[ShapeChoice]:
    """Model every even compute-way allocation for one schedule.

    Wide tiles (>= 16 MCCs) drop to 3 GHz and burn switch-fabric link
    power; small tiles run at 4 GHz.  Throughput saturates at the
    operand-bus bound, after which additional ways only add leakage —
    which is exactly what ``items_per_joule`` exposes.
    """
    clocking = clocking or FreacClocking()
    energy = energy or EnergyModel()
    tile = schedule.resources.mccs
    ceiling = 2 * ((total_ways - scratchpad_ways) // 2)
    if max_compute_ways is not None:
        ceiling = min(ceiling, max_compute_ways)
    choices: List[ShapeChoice] = []
    for ways in range(max(2, min_compute_ways), ceiling + 1, 2):
        partition = SlicePartition(ways, scratchpad_ways, total_ways)
        tiles = partition.mccs() // tile
        if tiles < 1:
            continue
        timing = kernel_timing(
            schedule,
            items=items,
            slices=1,
            tiles_per_slice=tiles,
            scratchpad_service_words_per_cycle=float(
                min(max(scratchpad_ways, 1), 4)
            ),
            clocking=clocking,
        )
        seconds = timing.seconds
        if seconds <= 0:
            continue
        luts_active = schedule.resources.luts_per_mcc * tile
        breakdown = energy.accelerator_energy(
            lut_config_reads=items * schedule.fold_cycles * luts_active,
            mac_ops=items * schedule.fold_cycles * tile,
            bus_words=items * schedule.bus_words,
            seconds=seconds,
            slices_active=1,
            uses_switch_fabric=tile >= clocking.large_tile_threshold,
        )
        total_j = breakdown.total_j
        choices.append(
            ShapeChoice(
                compute_ways=ways,
                tile_mccs=tile,
                tiles=tiles,
                clock_hz=timing.clock_hz,
                items_per_s=timing.throughput_items_s,
                watts=breakdown.average_power_w(seconds),
                items_per_joule=items / total_j if total_j > 0 else 0.0,
            )
        )
    return choices


def energy_shape_hint(
    schedules: Sequence[FoldingSchedule],
    **kwargs,
) -> Optional[ShapeChoice]:
    """The most items/s-per-watt-efficient shape across tile sizes.

    Give it the same program scheduled at several ``mccs_per_tile``
    values (e.g. 1 and 16) and it answers the paper's placement
    question: many small 4 GHz tiles or a few wide 3 GHz tiles.
    """
    best: Optional[ShapeChoice] = None
    for schedule in schedules:
        for choice in shape_choices(schedule, **kwargs):
            if best is None or choice.items_per_joule > best.items_per_joule:
                best = choice
    return best


@dataclass
class ElasticLease:
    """One wave's claim on warm, elastic-partitioned slices."""

    placement: Placement
    partition: SlicePartition
    #: Billed transition latency (flush + way switching) for this lease.
    cost_s: float = 0.0
    #: Billed transition energy (flush/eviction traffic), joules.
    energy_j: float = 0.0
    ways_changed: int = 0
    warm_slices: int = 0
    cold_slices: int = 0
    resizes: int = 0


@dataclass
class _SliceState:
    """Partitioner-side view of one (device, slice)."""

    active: bool = False
    last_used: float = 0.0
    last_resize: float = -1.0e9


class ElasticPartitioner:
    """Grow/shrink the compute way split per slice, between waves.

    All public methods are thread-safe; the internal lock is a leaf
    (never calls out to service/pool code), so callers may hold their
    own locks while calling in.
    """

    #: Mutated only under ``self._lock`` — enforced by
    #: ``repro.analysis.selfcheck`` in CI.
    _GUARDED_BY_LOCK = ("_slices", "_arrivals", "_counters", "_hint_cache")

    def __init__(
        self,
        devices: Sequence[FreacDevice],
        base_partition: SlicePartition,
        config: Optional[ElasticConfig] = None,
        *,
        energy: Optional[EnergyModel] = None,
        clocking: Optional[FreacClocking] = None,
        clock=time.monotonic,
    ) -> None:
        self.devices = list(devices)
        if not self.devices:
            raise ServiceError("the elastic partitioner needs devices")
        self.config = config or ElasticConfig()
        self.energy = energy or EnergyModel()
        self.clocking = clocking or FreacClocking()
        self.scratch_ways = base_partition.scratchpad_ways
        self.total_ways = base_partition.total_ways
        ceiling = 2 * ((self.total_ways - self.scratch_ways) // 2)
        self.max_ways = min(self.config.max_compute_ways, ceiling)
        self.min_ways = min(self.config.min_compute_ways, self.max_ways)
        if self.min_ways < 2:
            raise ServiceError(
                f"{self.scratch_ways} scratchpad ways leave no room for "
                "a compute way pair"
            )
        self._clock = clock
        self._lock = threading.RLock()
        self._slices: Dict[Tuple[int, int], _SliceState] = {}
        self._arrivals: Deque[float] = deque(maxlen=512)
        self._hint_cache: Dict[Tuple[int, ...], int] = {}
        self._counters: Dict[str, float] = {
            "ways_resized": 0,
            "resizes": 0,
            "resize_cost_s": 0.0,
            "resize_energy_j": 0.0,
            "warm_attaches": 0,
            "cold_setups": 0,
            "reclaims": 0,
        }

    # ------------------------------------------------------------------
    # Pressure signals
    # ------------------------------------------------------------------

    def note_submit(self) -> None:
        """Record one job arrival (feeds the arrival-rate estimate)."""
        with self._lock:
            self._arrivals.append(self._clock())

    def _load(
        self, queue_depth: int, deadline_slack_s: Optional[float]
    ) -> float:
        """Queued-work pressure in grow steps.  Caller must hold
        ``self._lock`` (reads the arrival deque)."""
        now = self._clock()
        # Arrivals are appended in clock order: count back from the
        # newest and stop at the first one outside the horizon.
        expected = 0
        for t in reversed(self._arrivals):
            if now - t > ARRIVAL_HORIZON_S:
                break
            expected += 1
        load = (queue_depth + expected) / GROW_DEPTH_PER_STEP
        if deadline_slack_s is not None and deadline_slack_s < DEADLINE_SLACK_S:
            load += 1.0
        return load

    def _efficient_cap(
        self, schedule: Optional[FoldingSchedule], items: int
    ) -> int:
        """Growth cap from the energy-aware shape hint.

        Caller must hold ``self._lock`` (mutates the hint cache).
        """
        if schedule is None or not self.config.energy_aware:
            return self.max_ways
        # Items enter the key as a power-of-two bucket: the efficient
        # shape depends on batch depth (one item never fills a wide
        # tile array), but caching per exact count would let a sweep
        # of batch sizes grow the cache without bound.  LUT width
        # enters through ``luts_per_mcc``, which the energy model reads.
        key = (
            schedule.resources.mccs,
            schedule.resources.luts_per_mcc,
            schedule.fold_cycles,
            schedule.bus_words,
            max(items, 1).bit_length(),
        )
        cached = self._hint_cache.get(key)
        if cached is not None:
            return cached
        choices = shape_choices(
            schedule,
            scratchpad_ways=self.scratch_ways,
            total_ways=self.total_ways,
            items=max(items, 1),
            min_compute_ways=self.min_ways,
            max_compute_ways=self.max_ways,
            clocking=self.clocking,
            energy=self.energy,
        )
        if not choices:
            cap = self.max_ways
        else:
            best = max(c.items_per_joule for c in choices)
            cap = min(
                c.compute_ways
                for c in choices
                if c.items_per_joule >= 0.99 * best
            )
        self._hint_cache[key] = cap
        return cap

    # ------------------------------------------------------------------
    # The lease lifecycle
    # ------------------------------------------------------------------

    def lease(
        self,
        placement: Placement,
        *,
        queue_depth: int = 0,
        deadline_slack_s: Optional[float] = None,
        schedule: Optional[FoldingSchedule] = None,
        items: int = 0,
    ) -> ElasticLease:
        """Claim ``placement``'s slices warm, resizing them to the load.

        Idle slices are cold-set-up at the desired shape; warm slices
        are resized in place only when the hysteresis policy says so.
        Every way that changes role is billed flush time plus the way
        switch latency, and the flush/eviction energy, onto the
        returned lease.
        """
        with self._lock:
            now = self._clock()
            load = self._load(queue_depth, deadline_slack_s)
            cap = self._efficient_cap(schedule, items)
            controllers = [
                self.devices[placement.device].controllers[index]
                for index in placement.slices
            ]
            states = [
                self._slices.setdefault(
                    (placement.device, index), _SliceState()
                )
                for index in placement.slices
            ]
            current = next(
                (
                    c.slice.partition.compute_ways
                    for c in controllers
                    if c.state is not ControllerState.IDLE
                    and c.slice.partition is not None
                ),
                None,
            )
            if current is None:
                target_ways = self.config.target_compute_ways(
                    0, max(load, HIGH_WATER), cap
                )
                target_ways = max(target_ways, self.min_ways)
            else:
                target_ways = self.config.target_compute_ways(
                    current, load, cap
                )
                if target_ways < current and any(
                    now - state.last_resize < self.config.min_dwell_s
                    for state in states
                ):
                    # Hysteresis dwell: a shrink waits out the window
                    # so grow/shrink can't ping-pong wave to wave.
                    target_ways = current
            # Never lease fewer compute ways than one tile needs (a way
            # pair holds 4 MCCs), whatever the load says.
            if schedule is not None:
                fit = 2 * -(-schedule.resources.mccs // 4)
                if fit <= self.max_ways:
                    target_ways = max(target_ways, fit)
            target = SlicePartition(
                compute_ways=target_ways,
                scratchpad_ways=self.scratch_ways,
                total_ways=self.total_ways,
            )
            lease = ElasticLease(placement=placement, partition=target)
            for state, controller in zip(states, controllers):
                if controller.state is ControllerState.IDLE:
                    report = controller.setup(target)
                    lease.cold_slices += 1
                    self._counters["cold_setups"] += 1
                    self._charge(
                        lease, target.compute_ways + target.scratchpad_ways,
                        report.flush_time_s, report.flushed_bytes,
                    )
                    state.last_resize = now
                elif controller.slice.partition != target:
                    resized = controller.resize(target)
                    self._charge(
                        lease, resized.delta.ways_changed,
                        resized.flush_time_s, resized.delta.flushed_bytes,
                    )
                    state.last_resize = now
                else:
                    lease.warm_slices += 1
                    self._counters["warm_attaches"] += 1
                state.active = True
                state.last_used = now
            return lease

    def _charge(self, lease: ElasticLease, ways: int, flush_time_s: float,
                flushed_bytes: int) -> None:
        """Bill one slice's way transition to ``lease`` and the books:
        its flush plus the per-way switch, and the flush energy.
        Caller must hold ``self._lock``."""
        cost = flush_time_s + ways * WAY_SWITCH_S
        energy_j = self.energy.reconfiguration_energy(
            flushed_bytes=flushed_bytes, config_words=0
        )
        lease.cost_s += cost
        lease.energy_j += energy_j
        lease.ways_changed += ways
        lease.resizes += 1
        self._bill(ways, cost, energy_j)

    def _bill(self, ways: int, cost_s: float, energy_j: float) -> None:
        """Accumulate transition costs.  Caller must hold ``self._lock``."""
        self._counters["ways_resized"] += ways
        self._counters["resizes"] += 1
        self._counters["resize_cost_s"] += cost_s
        self._counters["resize_energy_j"] += energy_j

    def bill_program(self, cost_s: float, energy_j: float) -> None:
        """Charge a wave's configuration writes to the elastic cost books.

        Way counts and resize counters are untouched — only the time
        and energy of streaming the bitstream (or its delta) accrue, so the
        resize stats stay a pure measure of way transitions.
        """
        with self._lock:
            self._counters["resize_cost_s"] += cost_s
            self._counters["resize_energy_j"] += energy_j

    def checkin(self, lease: ElasticLease) -> None:
        """Return a lease's slices to the warm-idle pool.

        A slice whose idle window has already passed — at once, under
        :meth:`ElasticConfig.pinned` — is torn down here, before the
        caller hands its placement back, so no later wave can attach
        to a shape that was only leased for this one.
        """
        with self._lock:
            now = self._clock()
            for index in lease.placement.slices:
                key = (lease.placement.device, index)
                state = self._slices.get(key)
                if state is not None:
                    state.active = False
                    state.last_used = now
                    self._reclaim_idle(key, state, now)

    def maybe_reclaim(self, now: Optional[float] = None) -> int:
        """Tear down warm slices idle past the release window.

        Returns the number of ways returned to cache mode.  Never
        touches a slice with an active lease, so a running wave's ways
        cannot be freed under it.
        """
        with self._lock:
            now = self._clock() if now is None else now
            return sum(
                self._reclaim_idle(key, state, now)
                for key, state in self._slices.items()
            )

    def drain(self) -> int:
        """Release every warm slice back to all-cache (shutdown path)."""
        released = 0
        with self._lock:
            now = self._clock()
            for (device, index), state in self._slices.items():
                if state.active:
                    raise ServiceError(
                        f"cannot drain: slice {index} of device {device} "
                        "has an active lease"
                    )
                released += self._teardown((device, index), state, now)
            self._slices.clear()
        return released

    def _reclaim_idle(self, key: Tuple[int, int], state: _SliceState,
                      now: float) -> int:
        """Tear one slice down if it is idle past the release window.
        Caller must hold ``self._lock``."""
        if state.active or now - state.last_used < self.config.idle_release_s:
            return 0
        released = self._teardown(key, state, now)
        if released:
            self._counters["reclaims"] += 1
        return released

    def _teardown(self, key: Tuple[int, int], state: _SliceState,
                  now: float) -> int:
        """Return one slice's locked ways to the cache and bill the
        switch; 0 if it holds none.  Caller must hold ``self._lock``."""
        controller = self.devices[key[0]].controllers[key[1]]
        if controller.state is ControllerState.IDLE:
            return 0
        partition = controller.slice.partition
        ways = (
            partition.compute_ways + partition.scratchpad_ways
            if partition is not None else 0
        )
        controller.teardown()
        self._bill(ways, ways * WAY_SWITCH_S, 0.0)
        state.last_resize = now
        return ways

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def locked_ways(self) -> int:
        """Ways currently locked (compute + scratchpad) fleet-wide."""
        total = 0
        for device in self.devices:
            for controller in device.controllers:
                total += len(controller.slice.cache.locked_ways)
        return total

    def counters(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._counters)
