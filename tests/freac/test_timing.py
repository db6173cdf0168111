"""Analytical timing model: bottlenecks, monotonicity, accounting."""

import pytest

from repro.circuits.library import mapped_pe
from repro.errors import ConfigurationError
from repro.folding import TileResources, generate_config, list_schedule
from repro.freac.timing import (
    config_time_s,
    end_to_end_timing,
    fill_time_s,
    kernel_timing,
    reconfig_time_s,
    reload_cycles_per_item,
)


def schedule(name="VADD", mccs=1):
    return list_schedule(mapped_pe(name), TileResources(mccs=mccs))


def timing(sched, **overrides):
    defaults = dict(
        items=100_000,
        slices=8,
        tiles_per_slice=16,
        scratchpad_service_words_per_cycle=4.0,
    )
    defaults.update(overrides)
    return kernel_timing(sched, **defaults)


class TestKernelTiming:
    def test_more_slices_is_faster(self):
        sched = schedule()
        slow = timing(sched, slices=1)
        fast = timing(sched, slices=8)
        assert fast.seconds < slow.seconds

    def test_more_items_takes_longer(self):
        sched = schedule()
        assert timing(sched, items=10_000).seconds < timing(
            sched, items=1_000_000
        ).seconds

    def test_bus_bound_detection(self):
        sched = schedule("VADD")  # 3 bus words, 23 folds
        # Plenty of tiles -> the scratchpad bus binds first.
        result = timing(sched, tiles_per_slice=32)
        assert result.bottleneck == "bus"

    def test_compute_bound_detection(self):
        sched = schedule("NW")  # LUT heavy
        result = timing(sched, tiles_per_slice=1)
        assert result.bottleneck == "compute"

    def test_large_tiles_run_at_3ghz(self):
        sched16 = schedule("NW", mccs=16)
        assert timing(sched16).clock_hz == 3.0e9
        assert timing(schedule("NW", mccs=8)).clock_hz == 4.0e9

    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            timing(schedule(), slices=0)

    def test_validation_messages_name_the_bad_argument(self):
        # Regression: items=-1 used to be reported with the
        # slices/tiles message, so callers chased the wrong knob.
        with pytest.raises(ConfigurationError, match="items"):
            timing(schedule(), items=-1)
        with pytest.raises(ConfigurationError, match="slices and tiles"):
            timing(schedule(), slices=0)
        with pytest.raises(ConfigurationError, match="slices and tiles"):
            timing(schedule(), tiles_per_slice=0)

    def test_throughput_consistent(self):
        result = timing(schedule())
        assert result.throughput_items_s == pytest.approx(
            result.items / result.seconds
        )


class TestReloadCycles:
    def test_short_schedules_free(self):
        assert reload_cycles_per_item(schedule("VADD")) == 0

    @pytest.mark.slow
    def test_aes_tile1_pays_reloads(self):
        aes = list_schedule(mapped_pe("AES"), TileResources(mccs=1))
        penalty = reload_cycles_per_item(aes)
        assert penalty > 0
        # 4 config words per excess folding step.
        assert penalty == (aes.compute_cycles - 2048) * 4

    def test_reload_reflected_in_latency(self):
        sched = schedule("VADD")
        free = kernel_timing(
            sched, items=1000, slices=1, tiles_per_slice=1,
            scratchpad_service_words_per_cycle=4.0,
        )
        taxed = kernel_timing(
            sched, items=1000, slices=1, tiles_per_slice=1,
            scratchpad_service_words_per_cycle=4.0,
            rows_per_subarray=8,
        )
        assert taxed.cycles > free.cycles
        assert taxed.reload_cycles > 0


class TestReloadFormula:
    def test_excess_steps_times_stored_units(self):
        sched = schedule("VADD")
        rows = 8
        excess = sched.compute_cycles - rows
        assert excess > 0
        penalty = reload_cycles_per_item(sched, rows_per_subarray=rows)
        assert penalty == excess * sched.resources.luts_per_mcc

    def test_exactly_fitting_schedule_is_free(self):
        sched = schedule("VADD")
        assert reload_cycles_per_item(
            sched, rows_per_subarray=sched.compute_cycles
        ) == 0


class TestConfigTime:
    def test_parallel_across_mccs(self):
        """Writing config words is parallel per MCC, so a wider tile
        configures faster for the same image size."""
        narrow = generate_config(schedule("VADD", mccs=1))
        wide = generate_config(schedule("VADD", mccs=4))
        clock = 4.0e9
        per_word_narrow = config_time_s(narrow, clock) / narrow.total_words
        per_word_wide = config_time_s(wide, clock) / wide.total_words
        assert per_word_wide < per_word_narrow

    def test_exact_value(self):
        image = generate_config(schedule("VADD", mccs=1))
        expected = (-(-image.total_words // image.mccs)) / 2.0e9
        assert config_time_s(image, 2.0e9) == pytest.approx(expected)

    def test_faster_clock_is_faster(self):
        image = generate_config(schedule("VADD"))
        assert config_time_s(image, 4.0e9) < config_time_s(image, 3.0e9)


class TestReconfigTime:
    def test_no_resident_image_degrades_to_full_config(self):
        image = generate_config(schedule("VADD"))
        assert reconfig_time_s(image, None, 4.0e9) == config_time_s(
            image, 4.0e9
        )

    def test_identical_resident_image_is_free(self):
        image = generate_config(schedule("VADD"))
        assert reconfig_time_s(image, image, 4.0e9) == 0.0

    def test_delta_never_costs_more_than_full(self):
        vadd = generate_config(schedule("VADD"))
        dot = generate_config(schedule("DOT"))
        swap = reconfig_time_s(vadd, dot, 4.0e9)
        assert 0.0 < swap <= config_time_s(vadd, 4.0e9)


class TestZeroItems:
    def test_zero_items_zero_cycles(self):
        result = timing(schedule(), items=0)
        assert result.cycles == 0.0
        assert result.seconds == 0.0

    def test_zero_items_is_idle_not_a_bottleneck(self):
        # An empty batch has no bottleneck to name: with zero cycles
        # both bounds are trivially equal, and the old tie-break
        # labelled it "compute" — misleading in stats rollups.
        result = timing(schedule(), items=0)
        assert result.bottleneck == "idle"
        assert result.throughput_items_s == 0.0

    def test_nonzero_items_never_idle(self):
        assert timing(schedule(), items=1).bottleneck in {
            "compute", "bus"
        }

    def test_negative_items_rejected(self):
        with pytest.raises(ConfigurationError):
            timing(schedule(), items=-1)


class TestEndToEnd:
    def test_components_sum(self):
        sched = schedule()
        image = generate_config(sched)
        kernel = timing(sched)
        e2e = end_to_end_timing(
            kernel, input_bytes=1 << 20, output_bytes=1 << 18, image=image
        )
        assert e2e.total_s == pytest.approx(
            e2e.init_s + e2e.config_s + e2e.kernel_s + e2e.drain_s
        )
        assert 0.0 < e2e.kernel_fraction <= 1.0

    def test_zero_io_is_free(self):
        assert fill_time_s(0, slices=8) == 0.0

    def test_fill_time_scales_with_bytes(self):
        small = fill_time_s(1 << 20, slices=8)
        large = fill_time_s(1 << 24, slices=8)
        assert large > small

    def test_fill_parallel_across_slices(self):
        one = fill_time_s(1 << 24, slices=1)
        eight = fill_time_s(1 << 24, slices=8)
        assert eight < one
