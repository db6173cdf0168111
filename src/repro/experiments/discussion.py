"""Sec. VI discussion quantities: density and reconfiguration speed.

Two of the paper's qualitative claims are quantified here:

* **Logic density** — "Our architecture provides very high logic
  density, when compared to modern FPGAs": a slice stores one LUT
  configuration per sub-array row, so the *virtual* LUT capacity per
  mm^2 dwarfs an FPGA's physical LUT density (where ~80 % of area is
  routing, [41]).
* **Reconfiguration bandwidth** — "FPGAs have a limited configuration
  bandwidth of just 400MB/s.  FReaC Cache configuration is limited by
  LLC-DRAM bandwidth and the LLC's internal bandwidth (10s to 100s of
  GB/s)": time to swap a full accelerator configuration on each
  platform.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..freac.timing import config_time_s
from ..params import SystemParams, default_system
from ..power.area import slice_overhead
from .common import config_for, format_table

# Xilinx UltraScale+ CAP port: 32 bits at 200 MHz (paper footnote 4).
FPGA_CONFIG_BANDWIDTH_BYTES_S = 400e6
# A ZU9EG-class device: ~274k LUTs on roughly 600 mm^2 of 16 nm die
# (conservative; routing dominates the area, [41]).
FPGA_LUTS = 274_080
FPGA_AREA_MM2 = 600.0
# Full-device bitstream, ~26 MB for the ZU9EG class.
FPGA_BITSTREAM_BYTES = 26e6


@dataclass(frozen=True)
class DensityComparison:
    freac_virtual_luts_per_slice: int
    freac_concurrent_luts_per_slice: int
    freac_added_area_mm2: float
    freac_virtual_luts_per_mm2: float
    fpga_luts_per_mm2: float

    @property
    def density_advantage(self) -> float:
        return self.freac_virtual_luts_per_mm2 / self.fpga_luts_per_mm2


def logic_density(system: SystemParams | None = None) -> DensityComparison:
    """Virtual (time-folded) LUT density of a compute slice."""
    system = system or default_system()
    slice_params = system.slice_params
    mccs = system.mccs_for_ways(16)  # the 32MCC partition
    units = system.mcc.lut_slots(5)
    rows = slice_params.subarray.rows
    virtual = mccs * units * rows          # one config per row per unit
    concurrent = mccs * units
    # Charge the virtual LUTs to the area FReaC *adds* plus the
    # sub-arrays it borrows (16 ways of data arrays).
    added = slice_overhead(mccs, with_switch_fabric=True).total_mm2
    borrowed = 16 * slice_params.subarrays_per_way * slice_params.subarray.area_mm2
    per_mm2 = virtual / (added + borrowed)
    return DensityComparison(
        freac_virtual_luts_per_slice=virtual,
        freac_concurrent_luts_per_slice=concurrent,
        freac_added_area_mm2=added,
        freac_virtual_luts_per_mm2=per_mm2,
        fpga_luts_per_mm2=FPGA_LUTS / FPGA_AREA_MM2,
    )


@dataclass(frozen=True)
class ReconfigurationComparison:
    benchmark: str
    freac_config_bytes: int
    freac_config_time_s: float      # per tile, parallel across MCCs
    fpga_full_time_s: float
    fpga_partial_time_s: float      # proportional partial bitstream

    @property
    def speed_advantage_vs_partial(self) -> float:
        return self.fpga_partial_time_s / self.freac_config_time_s


def reconfiguration(benchmark: str = "NW", mccs: int = 4,
                    clock_hz: float = 4e9) -> ReconfigurationComparison:
    """Configuration-swap time: FReaC tile vs FPGA bitstream."""
    image = config_for(benchmark, mccs)
    freac_time = config_time_s(image, clock_hz)
    from ..baselines.fpga import ip_resources

    luts, _ = ip_resources(benchmark)
    partial = FPGA_BITSTREAM_BYTES * min(1.0, luts / FPGA_LUTS)
    return ReconfigurationComparison(
        benchmark=benchmark,
        freac_config_bytes=image.total_bytes,
        freac_config_time_s=freac_time,
        fpga_full_time_s=FPGA_BITSTREAM_BYTES / FPGA_CONFIG_BANDWIDTH_BYTES_S,
        fpga_partial_time_s=partial / FPGA_CONFIG_BANDWIDTH_BYTES_S,
    )


def compute_cache_contrast():
    """The Sec. VI Compute Caches comparison, quantified."""
    from ..baselines.compute_cache import (
        ComputeCacheBaseline,
        DATA_MANIPULATION_SUITE,
    )

    baseline = ComputeCacheBaseline()
    from ..workloads.suite import benchmark_names

    expressible = [
        name for name in benchmark_names()
        if ComputeCacheBaseline.can_express(name)
    ]
    return {
        "compute_cache_avg_speedup": baseline.average_speedup(),
        "domain_workloads": [w.name for w in DATA_MANIPULATION_SUITE],
        "freac_suite_expressible": expressible,
    }


def main() -> str:
    density = logic_density()
    lines = ["Sec. VI discussion — logic density"]
    lines.append(format_table(
        ["Quantity", "Value"],
        [
            ["virtual LUTs per slice (32 MCC)",
             f"{density.freac_virtual_luts_per_slice:,}"],
            ["concurrent LUTs per cycle",
             density.freac_concurrent_luts_per_slice],
            ["FReaC virtual LUTs / mm^2",
             f"{density.freac_virtual_luts_per_mm2:,.0f}"],
            ["FPGA LUTs / mm^2", f"{density.fpga_luts_per_mm2:,.0f}"],
            ["density advantage", f"{density.density_advantage:,.0f}x"],
        ],
    ))
    lines.append("")
    lines.append("Sec. VI discussion — reconfiguration speed")
    rows = []
    for name in ("NW", "SRT", "KMP"):
        comparison = reconfiguration(name)
        rows.append([
            name,
            f"{comparison.freac_config_bytes / 1024:.1f} KB",
            f"{comparison.freac_config_time_s * 1e6:.2f} us",
            f"{comparison.fpga_partial_time_s * 1e3:.2f} ms",
            f"{comparison.speed_advantage_vs_partial:,.0f}x",
        ])
    lines.append(format_table(
        ["benchmark", "FReaC cfg", "FReaC time", "FPGA partial", "advantage"],
        rows,
    ))
    lines.append("")
    lines.append("Sec. VI discussion — Compute Caches contrast")
    contrast = compute_cache_contrast()
    lines.append(
        f"  bit-line engine, its own domain "
        f"({', '.join(contrast['domain_workloads'])}): "
        f"{contrast['compute_cache_avg_speedup']:.2f}x average "
        "(paper quotes 1.9x)"
    )
    expressible = contrast["freac_suite_expressible"] or ["none"]
    lines.append(
        "  FReaC-suite benchmarks it can express at all: "
        f"{', '.join(expressible)} — FReaC is 'not limited to bit-level "
        "operations or a restricted domain'"
    )
    output = "\n".join(lines)
    print(output)
    return output


if __name__ == "__main__":
    main()
