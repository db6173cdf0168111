"""The FReaC Cache architecture model.

Assembles the substrate pieces into the system of paper Sec. III:
reconfigurable compute slices with micro compute clusters, scratchpads
carved from locked ways, a compute-cluster controller (CC Ctrl) in the
control box, and a load/store-only host interface.
"""

from .lut import FoldedLut
from .scratchpad import Scratchpad
from .mcc import MicroComputeCluster, make_tile
from .ccctrl import ComputeClusterController
from .compute_slice import ReconfigurableComputeSlice, SlicePartition
from .executor import BatchResult, ExecutionStats, FoldedExecutor, StreamBinding
from .specialize import (
    SpecializationUnsupported,
    SpecializedPlan,
    build_plan,
    plan_artifact,
    plan_for,
)
from .hostif import HostInterface, Register
from .device import FreacDevice, AcceleratorProgram
from .fabric import SwitchFabric
from .planner import PartitionPlan, plan_partition
from .runner import WorkloadRunReport, run_workload
from .session import ExecutionSession
from .timing import (
    KernelTiming,
    EndToEndTiming,
    kernel_timing,
    end_to_end_timing,
)

__all__ = [
    "BatchResult",
    "ExecutionSession",
    "SpecializationUnsupported",
    "SpecializedPlan",
    "build_plan",
    "plan_artifact",
    "plan_for",
    "FoldedLut",
    "Scratchpad",
    "MicroComputeCluster",
    "make_tile",
    "ComputeClusterController",
    "ReconfigurableComputeSlice",
    "SlicePartition",
    "FoldedExecutor",
    "ExecutionStats",
    "StreamBinding",
    "HostInterface",
    "Register",
    "FreacDevice",
    "AcceleratorProgram",
    "SwitchFabric",
    "PartitionPlan",
    "plan_partition",
    "WorkloadRunReport",
    "run_workload",
    "KernelTiming",
    "EndToEndTiming",
    "kernel_timing",
    "end_to_end_timing",
]
