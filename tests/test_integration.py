"""Cross-module integration: the full user journey, end to end.

Mirrors the paper's Fig. 5 six-step flow through the *public* API:
partition -> flush/lock -> configure -> fill scratchpads -> run ->
read back, with functional results checked against the pure-Python
kernels, and the timing/power models evaluated on the same schedule.
"""

import numpy as np

from repro.circuits.library import mapped_pe
from repro.experiments.common import freac_estimate, scratchpad_service_rate
from repro.freac import (
    AcceleratorProgram,
    ExecutionSession,
    FreacDevice,
    SlicePartition,
    StreamBinding,
)
from repro.params import scaled_system
from repro.workloads.kernels import dot_product
from repro.workloads.suite import benchmark


class TestFullFlow:
    def test_dot_product_offload_end_to_end(self):
        device = FreacDevice(scaled_system(l3_slices=2))
        partition = SlicePartition(compute_ways=4, scratchpad_ways=4)

        # Steps 1-6 are owned by the session (the only lifecycle API).
        with ExecutionSession(device, partition) as session:
            # Steps 1-3: select, flush, lock.
            assert all(r.mccs == 8 for r in session.setup_reports)

            # Step 4: configure the DOT accelerator, one MCC per tile.
            program = AcceleratorProgram("DOT", mapped_pe("DOT"))
            prog_reports = session.program(program, mccs_per_tile=1)
            assert all(r.tiles == 8 for r in prog_reports)

            # Step 5: fill the scratchpads.
            rng = np.random.default_rng(42)
            items = 16
            a = rng.integers(0, 1 << 16, size=(items, 8))
            w = rng.integers(0, 1 << 16, size=(items, 8))
            for controller in device.controllers:
                for item in range(items):
                    controller.fill_scratchpad(
                        item * 8, [int(x) for x in a[item]]
                    )
                    controller.fill_scratchpad(
                        4096 + item * 8, [int(x) for x in w[item]]
                    )

            # Step 6: run, split across both slices.
            binding = {
                "a": StreamBinding(0, 8),
                "w": StreamBinding(4096, 8),
                "out": StreamBinding(8192, 1),
            }
            totals = device.run_batch(items, binding,
                                      per_slice_items=[items, items])
            assert totals["invocations"] == 2 * items

            # Read back and check against the reference kernel.
            for controller in device.controllers:
                got = controller.read_scratchpad(8192, items)
                expected = [dot_product(a[i], w[i]) for i in range(items)]
                assert got == expected

        # The slices were returned to pure caching on session exit.
        assert all(c.state.value == "idle" for c in device.controllers)

    def test_functional_counts_feed_energy_model(self):
        """Executor counters and the analytical model agree on totals."""
        from repro.folding import TileResources, list_schedule
        from repro.freac.executor import FoldedExecutor
        from repro.freac.mcc import make_tile

        netlist = mapped_pe("VADD")
        schedule = list_schedule(netlist, TileResources())
        tile = make_tile(1)
        executor = FoldedExecutor(schedule, tile)
        executor.load_configuration()
        runs = 5
        for index in range(runs):
            executor.run(streams={"a": [index], "b": [index]})
        assert executor.stats.lut_evaluations == runs * schedule.lut_ops
        assert executor.stats.bus_words == runs * (
            schedule.bus_words - schedule.spills.spill_words
        )

    def test_estimate_pipeline_consistency(self):
        """The experiment pipeline's numbers are internally coherent."""
        spec = benchmark("GEMM")
        partition = SlicePartition(8, 10)
        estimate = freac_estimate(spec, partition, tile_mccs=2, slices=4)
        assert estimate is not None
        kernel = estimate.kernel
        assert kernel.seconds > 0
        assert estimate.end_to_end.total_s >= kernel.seconds
        assert estimate.power_w > 0
        # Bus-bound throughput can never exceed the service ceiling.
        ceiling = (
            estimate.slices
            * scratchpad_service_rate(partition)
            / kernel.bus_words_per_item
            * kernel.clock_hz
        )
        assert kernel.throughput_items_s <= ceiling * 1.01
