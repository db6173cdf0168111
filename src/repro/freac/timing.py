"""Analytical performance model for FReaC accelerators.

This plays the role of the paper's gem5 timing model (Sec. V): it
combines the *measured* netlist/schedule quantities (folding cycles,
bus words per invocation, configuration size — all produced by the
real scheduler on the real synthesised circuits) with the
architecture's service rates to produce kernel and end-to-end
latencies.

Bottleneck model
----------------
Tiles in a slice run the same schedule in lock-step.  A slice
sustains, in items per cache cycle::

    throughput = min( tiles / C_eff ,  R / B )

where ``C_eff`` is folding cycles per invocation (including spill
stalls and mid-run configuration reloads), ``B`` is bus words per
invocation, and ``R`` is the scratchpad service rate in words per
cycle (one 32-bit word per scratchpad way per cycle, serialised
through the control box — Sec. III-D).  The first factor is the
compute bound, the second the operand-bus bound; whichever is smaller
names the bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError
from ..folding.config import ConfigImage
from ..folding.schedule import FoldingSchedule
from ..params import FreacClocking, SubarrayParams


@dataclass(frozen=True)
class KernelTiming:
    """Kernel-only execution time of a batch on the accelerator."""

    items: int
    slices: int
    tiles_per_slice: int
    fold_cycles: int
    reload_cycles: int
    bus_words_per_item: int
    clock_hz: float
    cycles: float
    bottleneck: str  # "compute", "bus", or "idle" (items == 0)

    @property
    def seconds(self) -> float:
        return self.cycles / self.clock_hz

    @property
    def throughput_items_s(self) -> float:
        return self.items / self.seconds if self.seconds > 0 else 0.0


@dataclass(frozen=True)
class EndToEndTiming:
    """Fig. 13's decomposition: init + config + kernel + drain."""

    init_s: float
    config_s: float
    kernel_s: float
    drain_s: float

    @property
    def total_s(self) -> float:
        return self.init_s + self.config_s + self.kernel_s + self.drain_s

    @property
    def kernel_fraction(self) -> float:
        total = self.total_s
        return self.kernel_s / total if total > 0 else 0.0


def reload_cycles_per_item(
    schedule: FoldingSchedule,
    rows_per_subarray: int = SubarrayParams().rows,
) -> int:
    """Config-reload stall cycles charged to every invocation.

    Schedules longer than the sub-array row budget re-load the
    remaining folding steps mid-run over the per-MCC config bus at one
    word per cycle, in parallel across MCCs (Sec. III-B re-uses the
    second data bus for configuration movement).
    """
    excess_steps = max(0, schedule.compute_cycles - rows_per_subarray)
    return excess_steps * schedule.resources.config_subarrays


def kernel_timing(
    schedule: FoldingSchedule,
    *,
    items: int,
    slices: int,
    tiles_per_slice: int,
    scratchpad_service_words_per_cycle: float,
    clocking: Optional[FreacClocking] = None,
    rows_per_subarray: int = SubarrayParams().rows,
) -> KernelTiming:
    """Batch latency of ``items`` invocations over the whole device."""
    if items < 0:
        raise ConfigurationError("items must be non-negative")
    if slices < 1 or tiles_per_slice < 1:
        raise ConfigurationError("slices and tiles must be positive")
    clocking = clocking or FreacClocking()
    clock_hz = clocking.tile_clock_hz(schedule.resources.mccs)

    reload = reload_cycles_per_item(schedule, rows_per_subarray)
    cycles_per_item = schedule.fold_cycles + reload
    bus_words = schedule.bus_words

    # Compute bound: every tile runs its share of invocations back to
    # back (lock-step), so the busiest tile sets the batch latency.
    total_tiles = slices * tiles_per_slice
    rounds = -(-items // total_tiles) if items else 0
    compute_cycles = rounds * cycles_per_item
    # Bus bound: after the first invocation fills the pipeline, items
    # drain at the scratchpad service rate.
    if items and bus_words > 0 and scratchpad_service_words_per_cycle > 0:
        bus_cycles = cycles_per_item + (
            items * bus_words / (slices * scratchpad_service_words_per_cycle)
        )
    else:
        bus_cycles = 0.0
    cycles = float(max(compute_cycles, bus_cycles))
    if items == 0:
        bottleneck = "idle"
    else:
        bottleneck = "compute" if compute_cycles >= bus_cycles else "bus"
    return KernelTiming(
        items=items,
        slices=slices,
        tiles_per_slice=tiles_per_slice,
        fold_cycles=schedule.fold_cycles,
        reload_cycles=reload,
        bus_words_per_item=bus_words,
        clock_hz=clock_hz,
        cycles=cycles,
        bottleneck=bottleneck,
    )


def config_time_s(
    image: ConfigImage,
    clock_hz: float,
) -> float:
    """Time to write one tile's bitstream (parallel across MCCs)."""
    return reconfig_time_s(image, None, clock_hz)


def reconfig_time_s(
    image: ConfigImage,
    previous: Optional[ConfigImage],
    clock_hz: float,
) -> float:
    """Time to swap a resident program in place (live reprogramming).

    Only the configuration words that differ from the resident image
    travel over the per-MCC config bus — the LUTstructions insight
    that configuration movement need not repeat unchanged rows.  With
    no resident image this degrades to a full :func:`config_time_s`.
    A slice's controller bills its programs by the same rule
    (:meth:`~repro.freac.ccctrl.ComputeClusterController.program`).
    """
    words_per_mcc = -(-image.delta_words(previous) // image.mccs)
    return words_per_mcc / clock_hz


def fill_time_s(
    total_bytes: int,
    *,
    slices: int,
    cores: int = 8,
    core_clock_hz: float = 4.0e9,
    core_store_bytes_per_cycle: float = 4.0,
    slice_accept_words_per_cycle: float = 4.0,
) -> float:
    """Host-side scratchpad initialisation time (Fig. 5 step 5).

    The cores generate/initialise data directly into the scratchpads;
    the rate is the lesser of the cores' store bandwidth and the
    slices' aggregate accept bandwidth ("we load LLC slices in
    parallel", Sec. V-C).
    """
    if total_bytes <= 0:
        return 0.0
    core_bw = cores * core_store_bytes_per_cycle * core_clock_hz
    slice_bw = slices * slice_accept_words_per_cycle * 4 * core_clock_hz
    return total_bytes / min(core_bw, slice_bw)


def end_to_end_timing(
    kernel: KernelTiming,
    *,
    input_bytes: int,
    output_bytes: int,
    image: ConfigImage,
) -> EndToEndTiming:
    """Fig. 12/13 end-to-end latency: init + config + kernel + drain."""
    init = fill_time_s(input_bytes, slices=kernel.slices)
    drain = fill_time_s(output_bytes, slices=kernel.slices)
    config = config_time_s(image, kernel.clock_hz)
    return EndToEndTiming(
        init_s=init,
        config_s=config,
        kernel_s=kernel.seconds,
        drain_s=drain,
    )
