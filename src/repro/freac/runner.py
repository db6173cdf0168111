"""High-level workload runner: dataset -> scratchpad -> verify.

Wraps the Fig. 5 flow for a whole benchmark batch: generate (or
accept) a dataset, lay its streams out in each slice's scratchpad,
program the accelerator, run data-parallel across slices, read the
results back, and check them against the reference — the convenience
layer a downstream user of the library would reach for first.

The flow is factored into three reusable stages so the serving layer
(:mod:`repro.service`) can drive them independently:

* :func:`build_program` — synthesis/tech-map/fold + pre-flight lint,
  the expensive part a compiled-program cache short-circuits;
* :func:`plan_layout` — pack a batch's streams into a scratchpad;
* :func:`execute_on_controllers` — fill, run, and verify a batch on an
  arbitrary subset of slice controllers (the unit a scheduler places).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis import preflight_netlist, preflight_schedule
from ..circuits.library import PeCircuit, build_pe, mapped_pe
from ..errors import CapacityError, DeviceError, RequestError
from ..telemetry import Telemetry
from ..telemetry.core import resolve
from ..workloads.datagen import Dataset, dataset_for
from .ccctrl import ComputeClusterController, run_on_slices
from .compute_slice import SlicePartition
from .device import AcceleratorProgram, FreacDevice
from .executor import StreamBinding


@dataclass
class WorkloadRunReport:
    """Outcome of one functional batch run."""

    benchmark: str
    items: int
    slices_used: int
    tiles_per_slice: int
    verified: bool
    mismatches: int = 0
    invocations: int = 0
    mac_operations: int = 0
    lut_evaluations: int = 0
    bus_words: int = 0
    engine_fallbacks: int = 0
    layout: Dict[str, StreamBinding] = field(default_factory=dict)


def build_program(
    name: str,
    *,
    lut_inputs: int = 5,
    mccs_per_tile: int = 1,
    preflight: bool = True,
    telemetry: Optional[Telemetry] = None,
    optimize: bool = False,
    opt_budget_s: Optional[float] = None,
) -> AcceleratorProgram:
    """Synthesize, tech-map, fold, and lint one benchmark program.

    This is the expensive path the serving layer's compiled-program
    cache avoids repeating: the returned program carries its folding
    schedule for ``mccs_per_tile`` already computed, and (unless
    ``preflight=False``) has passed the netlist and schedule gates.

    ``optimize=True`` runs the time-boxed fold-count minimizer
    (:mod:`repro.optimizer`) over the heuristic schedule; the program
    then carries the never-worse optimized schedule (and, if the
    re-covering won, its smaller netlist).
    """
    tel = resolve(telemetry)
    with tel.span("runner.build_program", "runner",
                  benchmark=name.upper()):
        program = AcceleratorProgram(
            name.upper(), mapped_pe(name, lut_inputs), lut_inputs
        )
        schedule = program.schedule_for(mccs_per_tile)
        if optimize:
            from ..folding.schedule import TileResources
            from ..optimizer import OptimizerConfig, optimize_schedule

            config = OptimizerConfig()
            if opt_budget_s is not None:
                config = config.replace(budget_s=opt_budget_s)
            outcome = optimize_schedule(
                program.netlist,
                TileResources(mccs=mccs_per_tile, lut_inputs=lut_inputs),
                config=config, heuristic=schedule, telemetry=tel,
            )
            schedule = outcome.schedule
            program = AcceleratorProgram(
                name.upper(), schedule.netlist, lut_inputs,
                schedules={mccs_per_tile: schedule},
            )
        if preflight:
            # Pre-flight lint before any way is locked: a malformed netlist
            # or schedule aborts here with every violation reported, instead
            # of mid-run with the LLC already partitioned (docs/analysis.md).
            preflight_netlist(program.netlist, lut_inputs=program.lut_inputs,
                              stage="build_program")
            preflight_schedule(schedule, stage="build_program")
    return program


def plan_layout(
    dataset: Dataset,
    scratchpad_words: int,
    *,
    pe: Optional[PeCircuit] = None,
) -> Dict[str, StreamBinding]:
    """Pack every stream's per-item regions into the scratchpad."""
    pe = pe if pe is not None else build_pe(dataset.benchmark)
    layout: Dict[str, StreamBinding] = {}
    offset = 0
    for stream, words in sorted(pe.loads.items()):
        layout[stream] = StreamBinding(offset, words)
        offset += words * dataset.items
    for stream, words in sorted(pe.stores.items()):
        layout[stream] = StreamBinding(offset, words)
        offset += words * dataset.items
    if offset > scratchpad_words:
        raise CapacityError(
            f"{dataset.benchmark} batch of {dataset.items} items needs "
            f"{offset} scratchpad words but only {scratchpad_words} exist; "
            "shrink the batch or give the partition more scratchpad ways"
        )
    return layout


def execute_on_controllers(
    controllers: Sequence[ComputeClusterController],
    dataset: Dataset,
    layout: Dict[str, StreamBinding],
    *,
    pe: Optional[PeCircuit] = None,
    telemetry: Optional[Telemetry] = None,
) -> Tuple[Dict[str, int], List[int]]:
    """Fill, run, and verify one batch on the given slice controllers.

    The controllers must already be programmed.  Returns the aggregate
    counters of this batch (deltas, so repeated batches on the same
    programmed slices do not double-count) and the global indices of
    every item whose stores mismatched the reference.

    Fills and readbacks are issued as one bulk scratchpad transfer per
    stream per slice, and the run itself goes through the batched
    controller entry point, so each slice's share of the batch runs as
    one pass over the compiled plan (docs/execution.md).
    """
    if not controllers:
        raise DeviceError("no controllers to execute on")
    tel = resolve(telemetry)
    pe = pe if pe is not None else build_pe(dataset.benchmark)
    shares: List[Tuple[ComputeClusterController, int, int]] = []

    def fill(controller: ComputeClusterController, first: int,
             count: int) -> None:
        shares.append((controller, first, count))
        for stream in pe.loads:
            binding = layout[stream]
            data = dataset.loads[stream][first:first + count]
            if all(len(item_words) == binding.words_per_item
                   for item_words in data):
                # Per-item regions are contiguous, so the whole stream
                # goes down as one bulk fill.
                controller.fill_scratchpad(
                    binding.base_word,
                    [word for item_words in data for word in item_words],
                )
            else:
                for local, item_words in enumerate(data):
                    controller.fill_scratchpad(
                        binding.base_word + local * binding.words_per_item,
                        item_words,
                    )

    with tel.span("runner.fill_and_run", "runner",
                  benchmark=dataset.benchmark, items=dataset.items):
        totals = run_on_slices(controllers, dataset.items, layout, fill=fill)

    mismatched: List[int] = []
    with tel.span("runner.verify", "runner",
                  benchmark=dataset.benchmark, items=dataset.items):
        for controller, first, count in shares:
            bad = set()
            for stream in pe.stores:
                binding = layout[stream]
                words = binding.words_per_item
                got = controller.read_scratchpad(
                    binding.base_word, count * words
                )
                for local in range(count):
                    item = first + local
                    if (got[local * words:(local + 1) * words]
                            != dataset.expected[stream][item]):
                        bad.add(item)
            mismatched.extend(sorted(bad))
    return totals, mismatched


def run_workload(
    device: FreacDevice,
    name: str,
    items: int,
    *,
    partition: Optional[SlicePartition] = None,
    mccs_per_tile: int = 1,
    seed: int = 0,
    dataset: Optional[Dataset] = None,
    program: Optional[AcceleratorProgram] = None,
    telemetry: Optional[Telemetry] = None,
    optimize: bool = False,
    opt_budget_s: Optional[float] = None,
) -> WorkloadRunReport:
    """Run ``items`` invocations of benchmark ``name``, data-parallel
    across every slice, and verify each result.

    Passing ``program`` injects an already-built (and already-linted)
    accelerator — e.g. a compiled-program cache entry — skipping the
    synthesis/tech-map/fold/pre-flight path entirely.  Passing
    ``telemetry`` installs it on the device for the duration of the
    run, so setup/program/teardown spans, per-tile folding events, and
    scratchpad counters all land in one place (docs/observability.md).

    The whole lifecycle is scoped by an
    :class:`~repro.freac.session.ExecutionSession`, so the ways are
    released even if execution raises mid-run.
    """
    from .session import ExecutionSession

    tel = resolve(telemetry if telemetry is not None else device.telemetry)
    partition = partition or SlicePartition(compute_ways=4, scratchpad_ways=4)
    if partition.scratchpad_ways == 0:
        raise DeviceError("the runner needs scratchpad ways for operands")
    dataset = dataset or dataset_for(name, items, seed=seed)
    if dataset.items != items:
        raise RequestError(
            f"dataset has {dataset.items} items but {items} were requested"
        )
    if dataset.benchmark != name.upper():
        raise RequestError(
            f"dataset is for {dataset.benchmark}, not {name.upper()}"
        )

    if program is None:
        program = build_program(name, mccs_per_tile=mccs_per_tile,
                                telemetry=tel, optimize=optimize,
                                opt_budget_s=opt_budget_s)

    pe = build_pe(name)
    with ExecutionSession(device, partition, telemetry=telemetry) as session:
        session.program(program, mccs_per_tile)
        pad_words = session.controllers[0].slice.scratchpad.words
        layout = plan_layout(dataset, pad_words, pe=pe)
        totals, mismatched = session.execute(dataset, layout, pe=pe)

    return WorkloadRunReport(
        benchmark=name.upper(),
        items=items,
        slices_used=device.slice_count,
        tiles_per_slice=partition.mccs() // mccs_per_tile,
        verified=not mismatched,
        mismatches=len(mismatched),
        invocations=totals["invocations"],
        mac_operations=totals["mac_operations"],
        lut_evaluations=totals["lut_evaluations"],
        bus_words=totals["bus_words"],
        engine_fallbacks=totals["engine_fallbacks"],
        layout=layout,
    )
