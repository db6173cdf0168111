"""The multi-slice FReaC device and the partition planner."""

import pytest

from repro.circuits.library import mapped_pe
from repro.errors import ConfigurationError, DeviceError, ProtocolError
from repro.freac.device import (
    AcceleratorProgram,
    FreacDevice,
    max_accelerator_tiles,
)
from repro.freac.compute_slice import SlicePartition
from repro.freac.executor import StreamBinding
from repro.freac.session import ExecutionSession
from repro.params import scaled_system


@pytest.fixture
def device():
    return FreacDevice(scaled_system(l3_slices=2))


class TestPlanner:
    def test_compute_limited(self):
        partition = SlicePartition(16, 4)
        assert max_accelerator_tiles(
            partition, tile_mccs=1, working_set_bytes_per_tile=1024
        ) == 32

    def test_memory_limited(self):
        partition = SlicePartition(16, 4)  # 256 KB scratchpad
        assert max_accelerator_tiles(
            partition, tile_mccs=1, working_set_bytes_per_tile=64 * 1024
        ) == 4

    def test_larger_tiles_divide_budget(self):
        partition = SlicePartition(16, 4)
        assert max_accelerator_tiles(
            partition, tile_mccs=8, working_set_bytes_per_tile=0
        ) == 4

    def test_zero_when_working_set_exceeds_scratchpad(self):
        partition = SlicePartition(16, 4)
        assert max_accelerator_tiles(
            partition, tile_mccs=1, working_set_bytes_per_tile=512 * 1024
        ) == 0

    def test_bad_tile_size(self):
        with pytest.raises(ConfigurationError):
            max_accelerator_tiles(
                SlicePartition(16, 4), tile_mccs=0,
                working_set_bytes_per_tile=1,
            )


class TestDeviceLifecycle:
    """The lifecycle API is ExecutionSession (the setup/program/
    teardown delegates are gone); the session drives the device's
    internal slice plumbing."""

    def test_session_partitions_selected_slices(self, device):
        with ExecutionSession(device, SlicePartition(4, 2),
                              slices=1) as session:
            assert len(session.setup_reports) == 1
            assert device.controllers[0].state.value == "partitioned"
            assert device.controllers[1].state.value == "idle"

    def test_legacy_delegates_are_gone(self, device):
        for name in ("setup", "program", "teardown"):
            assert not hasattr(device, name)

    def test_program_requires_setup(self, device):
        program = AcceleratorProgram("VADD", mapped_pe("VADD"))
        session = ExecutionSession(device, SlicePartition(4, 2))
        with pytest.raises(ProtocolError):
            session.program(program, mccs_per_tile=1)
        assert all(c.state.value == "idle" for c in device.controllers)

    def test_program_all_partitioned_slices(self, device):
        program = AcceleratorProgram("VADD", mapped_pe("VADD"))
        with ExecutionSession(device, SlicePartition(4, 2)) as session:
            reports = session.program(program, mccs_per_tile=1)
            assert len(reports) == 2

    def test_teardown_on_exit(self, device):
        with ExecutionSession(device, SlicePartition(4, 2)):
            pass
        assert all(c.state.value == "idle" for c in device.controllers)

    def test_service_rate_capped_by_control_box(self, device):
        assert device.scratchpad_service_rate(SlicePartition(16, 4)) == 4
        assert device.scratchpad_service_rate(SlicePartition(8, 12)) == 4
        assert device.scratchpad_service_rate(SlicePartition(18, 2)) == 2


class TestBatchExecution:
    def test_data_parallel_batch_across_slices(self, device):
        program = AcceleratorProgram("VADD", mapped_pe("VADD"))
        binding = {
            "a": StreamBinding(0, 1),
            "b": StreamBinding(64, 1),
            "c": StreamBinding(128, 1),
        }
        with ExecutionSession(device, SlicePartition(4, 2)) as session:
            session.program(program, mccs_per_tile=1)
            # Block distribution: slice 0 gets items 0..3, slice 1 items
            # 4..7, but each runs against its local scratchpad at item
            # offsets — fill both with the full array (the paper's
            # data-parallel copy).
            for controller in device.controllers:
                controller.fill_scratchpad(0, list(range(1, 9)))
                controller.fill_scratchpad(64, [10] * 8)
            totals = device.run_batch(8, binding)
        assert totals["invocations"] == 8

    def test_schedule_cached_per_tile_size(self):
        program = AcceleratorProgram("VADD", mapped_pe("VADD"))
        first = program.schedule_for(2)
        second = program.schedule_for(2)
        assert first is second

    def test_run_before_program_rejected(self, device):
        with pytest.raises(DeviceError):
            device.run_batch(1, {})
