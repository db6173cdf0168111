"""``ExecutionSession``: lifecycle scoping and error-path teardown.

The session owns Fig. 5's setup → program → fill/run → teardown flow;
the contract under test is that the claimed slices *always* come back
as plain cache ways — including when the body of the ``with`` raises
mid-run.  It is the only lifecycle API: the old ``FreacDevice``
delegates have been removed.
"""

import threading

import pytest

from repro.circuits.library import mapped_pe
from repro.errors import (
    ConfigurationError,
    DeviceError,
    ProtocolError,
    ReproError,
)
from repro.folding.schedule import OpSlot
from repro.freac import ExecutionSession
from repro.freac.ccctrl import ComputeClusterController
from repro.freac.compute_slice import SlicePartition
from repro.freac.device import AcceleratorProgram, FreacDevice
from repro.freac.executor import FoldedExecutor, StreamBinding
from repro.freac.runner import plan_layout
from repro.params import scaled_system
from repro.workloads.datagen import dataset_for


def small_device(slices=2):
    return FreacDevice(scaled_system(l3_slices=slices))


def vadd_program():
    return AcceleratorProgram("VADD", mapped_pe("VADD"))


VADD_MAP = {
    "a": StreamBinding(0, 1),
    "b": StreamBinding(64, 1),
    "c": StreamBinding(128, 1),
}


def count_scalar_items(monkeypatch):
    """Count the items the scalar loop (``FoldedExecutor.run``) runs."""
    calls = []
    run = FoldedExecutor.run

    def counting(self, *args, **kwargs):
        calls.append(1)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(FoldedExecutor, "run", counting)
    return calls


def use_oracle(monkeypatch):
    """Run every slice through the per-tile scalar oracle; returns the
    scalar item counter."""
    monkeypatch.setattr(
        ComputeClusterController, "run_batch",
        ComputeClusterController.run_batch_reference,
    )
    return count_scalar_items(monkeypatch)


class TestLifecycle:
    def test_enter_partitions_and_exit_releases(self):
        device = small_device()
        with ExecutionSession(device, SlicePartition(4, 2)) as session:
            assert session.active
            assert session.slice_indices == (0, 1)
            assert len(session.setup_reports) == 2
            states = [c.state.value for c in device.controllers]
            assert states == ["partitioned", "partitioned"]
        assert not session.active
        assert all(c.state.value == "idle" for c in device.controllers)

    def test_slice_subset_leaves_the_rest_alone(self):
        device = small_device()
        with ExecutionSession(device, SlicePartition(4, 2),
                              slices=(1,)) as session:
            assert session.slice_indices == (1,)
            assert device.controllers[0].state.value == "idle"
            assert device.controllers[1].state.value == "partitioned"
        assert device.controllers[1].state.value == "idle"

    def test_exception_in_body_still_tears_down(self):
        """The regression this API exists for: no leaked way locks."""
        device = small_device()
        with pytest.raises(RuntimeError, match="mid-run"):
            with ExecutionSession(device, SlicePartition(4, 2)) as session:
                session.program(vadd_program())
                raise RuntimeError("mid-run failure")
        assert not session.active
        assert all(c.state.value == "idle" for c in device.controllers)
        # The freed slices are immediately reusable by a new session.
        with ExecutionSession(device, SlicePartition(4, 2)) as again:
            assert len(again.setup_reports) == 2

    def test_failure_during_run_frees_slices(self):
        device = small_device()
        with pytest.raises(ReproError):
            with ExecutionSession(device, SlicePartition(4, 2)) as session:
                session.program(vadd_program())
                # An unroutable scratchpad map fails inside run_batch;
                # the session must still unwind and free the ways.
                session.run_batch(4, {"bogus": StreamBinding(1 << 30, 1)})
        assert all(c.state.value == "idle" for c in device.controllers)

    def test_close_is_idempotent(self):
        device = small_device()
        session = ExecutionSession(device, SlicePartition(4, 2))
        session.__enter__()
        session.close()
        session.close()
        assert all(c.state.value == "idle" for c in device.controllers)

    def test_single_use(self):
        device = small_device()
        session = ExecutionSession(device, SlicePartition(4, 2))
        with session:
            pass
        with pytest.raises(ProtocolError):
            session.__enter__()

    def test_concurrent_close_runs_teardown_once(self):
        device = small_device()
        session = ExecutionSession(device, SlicePartition(4, 2))
        session.__enter__()
        calls = []
        real = device._teardown_slices

        def counting_teardown(indices):
            calls.append(tuple(indices))
            return real(indices)

        device._teardown_slices = counting_teardown
        threads = [threading.Thread(target=session.close) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(calls) == 1
        assert all(c.state.value == "idle" for c in device.controllers)

    def test_stale_close_cannot_release_a_new_occupant(self):
        device = small_device()
        first = ExecutionSession(device, SlicePartition(4, 2), slices=(0,))
        first.__enter__()
        first.close()
        # A new session now owns slice 0; the old session's duplicate
        # close (e.g. an error path followed by a drain) must not
        # re-free the ways the new occupant has locked.
        second = ExecutionSession(device, SlicePartition(4, 2), slices=(0,))
        second.__enter__()
        first.close()
        assert device.controllers[0].state.value == "partitioned"
        second.close()
        assert device.controllers[0].state.value == "idle"

    def test_controller_teardown_when_idle_is_a_noop(self):
        device = small_device()
        controller = device.controllers[0]
        controller.teardown()
        controller.teardown()
        assert controller.state.value == "idle"

    def test_reenter_while_active_rejected(self):
        device = small_device()
        with ExecutionSession(device, SlicePartition(4, 2)) as session:
            with pytest.raises(ProtocolError):
                session.__enter__()

    def test_bad_slice_indices_rejected(self):
        device = small_device()
        with pytest.raises(ConfigurationError):
            ExecutionSession(device, SlicePartition(4, 2),
                             slices=(0, 7)).__enter__()

    def test_methods_require_active_session(self):
        session = ExecutionSession(small_device(), SlicePartition(4, 2))
        with pytest.raises(ProtocolError):
            session.controllers
        with pytest.raises(ProtocolError):
            session.fill(0, [1])
        with pytest.raises(ProtocolError):
            session.run_batch(1, VADD_MAP)


class TestExecution:
    def test_program_fill_run_read(self):
        device = small_device()
        with ExecutionSession(device, SlicePartition(4, 2)) as session:
            assert not session.programmed
            reports = session.program(vadd_program())
            assert session.programmed and len(reports) == 2
            for index in range(len(session.slice_indices)):
                session.fill(0, [1, 2, 3, 4], slice_index=index)
                session.fill(64, [10, 10, 10, 10], slice_index=index)
            totals = session.run_batch(8, VADD_MAP)
            assert totals["invocations"] == 8
            assert session.read(128, 4)[:2] == [11, 12]

    def test_back_to_back_batches_report_their_own_counters(self):
        device = small_device()
        with ExecutionSession(device, SlicePartition(4, 2)) as session:
            session.program(vadd_program())
            for index in range(len(session.slice_indices)):
                session.fill(0, [1, 2, 3, 4], slice_index=index)
                session.fill(64, [10, 10, 10, 10], slice_index=index)
            first = session.run_batch(8, VADD_MAP)
            second = session.run_batch(8, VADD_MAP)
            assert first["invocations"] == second["invocations"] == 8
            assert first == second
            assert device.run_batch(8, VADD_MAP) == first

    def test_run_requires_program(self):
        with ExecutionSession(small_device(),
                              SlicePartition(4, 2)) as session:
            with pytest.raises(ProtocolError):
                session.run_batch(4, VADD_MAP)

    def test_slice_index_out_of_range(self):
        with ExecutionSession(small_device(), SlicePartition(4, 2),
                              slices=(1,)) as session:
            with pytest.raises(DeviceError):
                session.fill(0, [1], slice_index=1)

    @pytest.mark.parametrize("path", ("reference", "specialized"))
    def test_execute_dataset_end_to_end(self, path, monkeypatch):
        scalar = (use_oracle(monkeypatch) if path == "reference"
                  else count_scalar_items(monkeypatch))
        device = small_device()
        dataset = dataset_for("VADD", items=6)
        with ExecutionSession(device, SlicePartition(4, 2)) as session:
            session.program(vadd_program())
            pad_words = session.controllers[0].slice.scratchpad.words
            layout = plan_layout(dataset, pad_words)
            totals, mismatched = session.execute(dataset, layout)
        assert mismatched == []
        assert totals["invocations"] == 6
        assert totals["engine_fallbacks"] == 0
        assert len(scalar) == (6 if path == "reference" else 0)

    def test_engines_agree_on_device_counters(self, monkeypatch):
        """The session's plan totals equal the scalar oracle's."""

        def dot_totals():
            device = small_device()
            dataset = dataset_for("DOT", items=5, seed=7)
            with ExecutionSession(device, SlicePartition(4, 2)) as session:
                session.program(AcceleratorProgram("DOT", mapped_pe("DOT")))
                pad_words = session.controllers[0].slice.scratchpad.words
                layout = plan_layout(dataset, pad_words)
                totals, mismatched = session.execute(dataset, layout)
            assert mismatched == []
            return totals

        plan = dot_totals()
        scalar = use_oracle(monkeypatch)
        assert dot_totals() == plan
        assert len(scalar) == plan["invocations"] == 5

    @pytest.mark.parametrize("path", ("reference", "specialized"))
    def test_corrupted_row_corrupts_its_tiles_items(self, path,
                                                    monkeypatch):
        """One inverted LUT row on tile 3 of 8 corrupts exactly the
        items that tile runs: i ≡ 3 (mod 8)."""
        if path == "reference":
            use_oracle(monkeypatch)
        device = small_device()
        dataset = dataset_for("VADD", items=16)
        with ExecutionSession(device, SlicePartition(4, 2),
                              slices=(0,)) as session:
            session.program(vadd_program())
            controller = session.controllers[0]
            assert controller.tiles == 8
            executor = controller.executors[3]
            op = next(op for op in executor.schedule.ops
                      if op.slot is OpSlot.LUT)
            row = executor.tile[op.mcc].subarrays[op.unit]
            row.write_row(op.cycle - 1, row.peek(op.cycle - 1) ^ 0xFFFFFFFF)
            layout = plan_layout(dataset,
                                 controller.slice.scratchpad.words)
            totals, mismatched = session.execute(dataset, layout)
        assert totals["invocations"] == 16
        assert mismatched == [3, 11]


class TestRemovedDelegates:
    def test_lifecycle_delegates_are_gone(self):
        device = small_device()
        for name in ("setup", "program", "teardown"):
            assert not hasattr(device, name), (
                f"FreacDevice.{name} was removed in favour of "
                "ExecutionSession and must not come back"
            )
