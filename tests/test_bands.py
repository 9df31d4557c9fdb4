import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tubeloss import (
    BandMismatchError,
    BandTable,
    FrequencyGrid,
    NegativeInsertionLossWarning,
    average_repetitions,
    band_average,
    band_from_nominal,
    energetic_spl_average,
    insertion_loss,
    third_octave_bands,
)

STANDARD_NOMINALS = [
    100, 125, 160, 200, 250, 315, 400, 500, 630, 800,
    1000, 1250, 1600, 2000, 2500, 3150, 4000, 5000,
]


class TestThirdOctaveBands:
    def test_standard_range_is_18_bands(self):
        bands = third_octave_bands(100.0, 5000.0)
        assert len(bands) == 18
        assert [b.nominal for b in bands] == STANDARD_NOMINALS

    def test_point_range(self):
        bands = third_octave_bands(1000.0, 1000.0)
        assert len(bands) == 1
        assert bands[0].nominal == 1000.0
        assert bands[0].center == 1000.0

    def test_1000_band_edges_base2(self):
        band = band_from_nominal(1000.0)
        assert band.lower == pytest.approx(1000.0 * 2.0 ** (-1 / 6), rel=1e-12)
        assert band.upper == pytest.approx(1000.0 * 2.0 ** (1 / 6), rel=1e-12)
        assert band.lower == pytest.approx(890.90, abs=0.01)
        assert band.upper == pytest.approx(1122.46, abs=0.01)

    def test_edges_multiply_to_center_squared(self):
        for band in third_octave_bands(100.0, 5000.0):
            assert band.lower * band.upper == pytest.approx(band.center**2, rel=1e-9)

    def test_tiling(self):
        bands = third_octave_bands(50.0, 10000.0)
        for left, right in zip(bands, bands[1:]):
            assert right.lower == pytest.approx(left.upper, rel=1e-9)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            third_octave_bands(1001.0, 1100.0)
        with pytest.raises(ValueError):
            third_octave_bands(0.0, 100.0)
        with pytest.raises(ValueError):
            third_octave_bands(500.0, 400.0)

    def test_nominal_round_trip(self):
        for nominal in STANDARD_NOMINALS:
            assert band_from_nominal(float(nominal)).nominal == float(nominal)

    def test_unknown_nominal_rejected(self):
        with pytest.raises(ValueError):
            band_from_nominal(1100.0)


class TestBandAverage:
    def test_constant_curve_both_modes(self):
        grid = FrequencyGrid.from_range(100.0, 5000.0, 7.0)
        curve = np.full(len(grid), 10.0)
        bands = third_octave_bands(125.0, 4000.0)
        for mode in ("power", "db"):
            table = band_average(grid, curve, bands, mode=mode)
            assert np.allclose(table.values, 10.0, atol=1e-12)
            assert np.allclose(table.coverage, 1.0)

    def test_two_bin_oracle(self):
        # bins at 0 dB and 20 dB inside one band
        band = band_from_nominal(1000.0)
        grid = FrequencyGrid([950.0, 1050.0])
        curve = np.array([0.0, 20.0])
        db_table = band_average(grid, curve, [band], mode="db")
        assert db_table.values[0] == pytest.approx(10.0, rel=1e-12)
        power_table = band_average(grid, curve, [band], mode="power")
        oracle = -10.0 * math.log10((1.0 + 0.01) / 2.0)
        assert power_table.values[0] == pytest.approx(oracle, rel=1e-12)
        assert power_table.values[0] == pytest.approx(2.97, abs=0.01)

    def test_invalid_bins_reduce_coverage(self):
        band = band_from_nominal(1000.0)
        grid = FrequencyGrid([950.0, 1000.0, 1050.0, 1100.0])
        curve = np.array([10.0, np.nan, 10.0, 10.0])
        table = band_average(grid, curve, [band])
        assert table.values[0] == pytest.approx(10.0)
        assert table.coverage[0] == pytest.approx(3.0 / 4.0)

    def test_empty_band_absent_not_zero(self):
        bands = third_octave_bands(100.0, 200.0)
        grid = FrequencyGrid([150.0, 160.0])  # only the 160 band gets bins
        curve = np.array([5.0, 5.0])
        table = band_average(grid, curve, bands)
        by_nominal = dict(zip([b.nominal for b in bands], table.values))
        assert np.isnan(by_nominal[100.0])
        assert by_nominal[160.0] == pytest.approx(5.0)

    def test_refinement_of_constant_curve(self):
        band = band_from_nominal(500.0)
        for n in (3, 30, 300):
            grid = FrequencyGrid(np.linspace(float(band.lower) + 0.1, float(band.upper) - 0.1, n))
            table = band_average(grid, np.full(n, 7.5), [band], mode="power")
            assert table.values[0] == pytest.approx(7.5, rel=1e-12)

    def test_infinite_loss_bins_power_mode(self):
        # +inf loss means zero transmitted power; the band mean stays finite
        band = band_from_nominal(1000.0)
        grid = FrequencyGrid([950.0, 1050.0])
        table = band_average(grid, np.array([10.0, np.inf]), [band], mode="power")
        assert table.values[0] == pytest.approx(-10.0 * math.log10(0.05), rel=1e-12)

    def test_unknown_mode_rejected(self):
        grid = FrequencyGrid([950.0])
        with pytest.raises(ValueError):
            band_average(grid, np.array([1.0]), [band_from_nominal(1000.0)], mode="median")


class TestAverageRepetitions:
    def test_single_run(self):
        mean, spread = average_repetitions(np.array([[3.0, 4.0]]))
        assert np.allclose(mean, [3.0, 4.0])
        assert np.allclose(spread, 0.0)

    def test_three_runs_hand_values(self):
        mean, spread = average_repetitions(np.array([[10.0], [12.0], [14.0]]))
        assert mean[0] == pytest.approx(12.0)
        assert spread[0] == pytest.approx(2.0)  # sample std, ddof = 1

    def test_permutation_invariance(self):
        runs = np.array([[10.0, 1.0], [12.0, 2.0], [14.0, 6.0]])
        mean_a, spread_a = average_repetitions(runs)
        mean_b, spread_b = average_repetitions(runs[::-1])
        assert np.allclose(mean_a, mean_b)
        assert np.allclose(spread_a, spread_b)

    def test_power_mode(self):
        runs = np.array([[0.0], [20.0]])
        mean_db, _ = average_repetitions(runs, mode="db")
        mean_power, _ = average_repetitions(runs, mode="power")
        assert mean_db[0] == pytest.approx(10.0)
        assert mean_power[0] == pytest.approx(-10.0 * math.log10(0.505), rel=1e-12)

    def test_missing_bins_excluded(self):
        mean, spread = average_repetitions(np.array([[10.0, np.nan], [20.0, np.nan]]))
        assert mean[0] == pytest.approx(15.0)
        assert np.isnan(mean[1])
        assert np.isnan(spread[1])

    def test_not_2d_or_no_run_rejected(self):
        for runs in ([1.0, 2.0], np.empty((0, 3)), [[[1.0]]]):
            with pytest.raises(ValueError, match="n_runs"):
                average_repetitions(runs)


class TestEnergeticAverage:
    def test_equal_levels(self):
        assert energetic_spl_average([60.0, 60.0]) == pytest.approx(60.0)

    def test_mixed_levels_oracle(self):
        oracle = 10.0 * math.log10((1e6 + 1e7) / 2.0)
        got = energetic_spl_average([60.0, 70.0])
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(67.40, abs=0.01)

    def test_single_value(self):
        assert energetic_spl_average([42.5]) == pytest.approx(42.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            energetic_spl_average([])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=120.0), min_size=1, max_size=12))
    def test_bounded_by_extremes(self, levels):
        avg = energetic_spl_average(levels)
        assert min(levels) - 1e-9 <= avg <= max(levels) + 1e-9


class TestInsertionLoss:
    def make_table(self, values, nominals=(500.0, 630.0, 800.0)):
        bands = tuple(band_from_nominal(n) for n in nominals)
        return BandTable.from_values(bands, values)

    def test_peak_example(self):
        il = insertion_loss(self.make_table([70.0, 70.0, 70.0]), self.make_table([59.0, 60.0, 61.0]))
        assert il.values.tolist() == [11.0, 10.0, 9.0]

    def test_identical_tables(self):
        table = self.make_table([55.0, 60.0, 65.0])
        il = insertion_loss(table, table)
        assert np.allclose(il.values, 0.0)

    def test_antisymmetry(self):
        rng = np.random.default_rng(5)
        a = self.make_table(rng.uniform(40, 80, 3))
        b = self.make_table(rng.uniform(40, 80, 3))
        with np.errstate(all="ignore"):
            import warnings as _w

            with _w.catch_warnings():
                _w.simplefilter("ignore", NegativeInsertionLossWarning)
                forward = insertion_loss(a, b)
                backward = insertion_loss(b, a)
        assert np.array_equal(forward.values, -backward.values)

    def test_band_mismatch_lists_difference(self):
        a = self.make_table([70.0, 70.0, 70.0], nominals=(500.0, 630.0, 800.0))
        b = self.make_table([60.0, 60.0, 60.0], nominals=(630.0, 800.0, 1000.0))
        with pytest.raises(BandMismatchError) as err:
            insertion_loss(a, b)
        assert "500" in str(err.value)
        assert "1000" in str(err.value)

    def test_negative_flagged_not_rejected(self):
        a = self.make_table([60.0, 60.0, 60.0])
        b = self.make_table([59.0, 61.0, 58.0])
        with pytest.warns(NegativeInsertionLossWarning):
            il = insertion_loss(a, b)
        assert il.values[1] == pytest.approx(-1.0)

    def test_coverage_is_minimum(self):
        bands = tuple(band_from_nominal(n) for n in (500.0, 630.0))
        a = BandTable(bands, np.array([60.0, 60.0]), np.array([1.0, 0.5]))
        b = BandTable(bands, np.array([50.0, 50.0]), np.array([0.8, 1.0]))
        il = insertion_loss(a, b)
        assert il.coverage.tolist() == [0.8, 0.5]


class TestBandTable:
    def test_validation(self):
        bands = tuple(band_from_nominal(n) for n in (500.0, 630.0))
        with pytest.raises(ValueError):
            BandTable(bands, np.array([1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            BandTable(bands, np.array([1.0, 2.0]), np.array([1.0, 1.5]))
        with pytest.raises(ValueError):
            BandTable(bands[::-1], np.array([1.0, 2.0]), np.array([1.0, 1.0]))

    def test_same_bands(self):
        a = BandTable.from_values(third_octave_bands(100.0, 200.0), [1.0, 2.0, 3.0, 4.0])
        b = BandTable.from_values(third_octave_bands(100.0, 200.0), [9.0, 9.0, 9.0, 9.0])
        c = BandTable.from_values(third_octave_bands(125.0, 250.0), [1.0, 2.0, 3.0, 4.0])
        assert a.same_bands(b)
        assert not a.same_bands(c)
