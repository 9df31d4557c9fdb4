import math
import warnings

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

    def test_power_mode_keeps_a_band_finite_where_the_power_sum_overflows(self):
        # 10^(4010/10) overflows; relative to the lowest value the mean is 10 log10((1 + 0.1) / 2) lower
        band = band_from_nominal(1000.0)
        grid = FrequencyGrid([950.0, 1000.0, 1050.0])
        table = band_average(grid, np.array([-4000.0, -4010.0, np.nan]), [band], mode="power")
        assert table.values[0] == pytest.approx(-4010.0 - 10.0 * math.log10(0.55), rel=1e-12)

    def test_an_overflowing_band_between_others_keeps_their_bits(self):
        # 630-1600 Hz: -4000 and -4010 dB bins fill the 1000 Hz band, the 3rd of 5
        grid = FrequencyGrid.from_range(550.0, 1800.0, 1.0)
        bands = third_octave_bands(630.0, 1600.0)
        values = np.random.default_rng(7).uniform(20.0, 60.0, len(grid))
        middle = (grid.frequencies >= bands[2].lower) & (grid.frequencies < bands[2].upper)
        at = np.flatnonzero(middle)
        values[at] = np.where(at % 2 == 0, -4010.0, -4000.0)
        # a NaN bin before and in the band, so its terms sit at an offset in the kept bins
        values[[at[0] - 5, at[3]]] = np.nan
        n_low = np.count_nonzero(values[at] == -4010.0)
        n_high = np.count_nonzero(values[at] == -4000.0)

        table = band_average(grid, values, bands, mode="power")
        want = -4010.0 - 10.0 * math.log10((n_low + 0.1 * n_high) / (n_low + n_high))
        assert table.values[2] == pytest.approx(want, rel=1e-12)
        with np.errstate(over="ignore"):
            want_values, want_coverage = reference_band_average(grid, values, bands, "power")
        assert want_values[2] == -np.inf  # the plain power mean overflows there
        others = [0, 1, 3, 4]
        assert table.values[others].tobytes() == want_values[others].tobytes()
        assert table.coverage.tobytes() == want_coverage.tobytes()

    def test_unknown_mode_rejected(self):
        grid = FrequencyGrid([950.0])
        with pytest.raises(ValueError):
            band_average(grid, np.array([1.0]), [band_from_nominal(1000.0)], mode="median")


def reference_band_average(grid, values_db, bands, mode):
    """The per-band mask loop ``band_average`` replaced: the oracle of the differential test."""
    values = np.asarray(values_db, dtype=float)
    usable = ~np.isnan(values)
    f = grid.frequencies
    out = np.full(len(bands), np.nan)
    coverage = np.zeros(len(bands))
    with np.errstate(divide="ignore"):
        for i, band in enumerate(bands):
            in_band = (f >= band.lower) & (f < band.upper)
            n_in = int(np.count_nonzero(in_band))
            if n_in == 0:
                continue
            use = in_band & usable
            n_use = int(np.count_nonzero(use))
            coverage[i] = n_use / n_in
            if n_use == 0:
                continue
            if mode == "power":
                out[i] = -10.0 * np.log10(np.mean(10.0 ** (-values[use] / 10.0)))
            else:
                out[i] = float(np.mean(values[use]))
    return out, coverage


# bands reaching past the drawn grids on both sides, and the float edges between them
WIDE_BANDS = third_octave_bands(50.0, 10000.0)
EDGES = sorted({edge for band in WIDE_BANDS for edge in (band.lower, band.upper)})


@st.composite
def band_average_cases(draw):
    """A grid, a curve with NaN and +inf bins, a band range and a mode.

    The grid is a regular stretch (up to ~13 000 bins, enough for numpy's
    pairwise sums to split) plus exact band-edge floats and their neighbours.
    """
    first = draw(st.integers(0, len(WIDE_BANDS) - 1))
    last = draw(st.integers(first, len(WIDE_BANDS) - 1))
    start = draw(st.floats(40.0, 9000.0))
    step = draw(st.sampled_from([0.37, 1.0, 2.5, 10.0, 33.3]) | st.floats(0.37, 500.0))
    width = draw(st.floats(0.0, 5000.0))
    parts = [np.arange(start, start + width + 0.5 * step, step)]
    for edge in draw(st.lists(st.sampled_from(EDGES), max_size=12)):
        below, above = np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)
        parts.append(draw(st.sampled_from([[edge], [below, edge, above], [below], [above]])))
    grid = FrequencyGrid(np.unique(np.concatenate(parts)))

    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(-20.0, 120.0, len(grid))
    p_inf = draw(st.sampled_from([0.0, 0.05, 1.0]))
    p_nan = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    kind = rng.random(len(grid))
    values[kind < p_nan] = np.nan
    values[(kind >= p_nan) & (kind < p_nan + p_inf)] = np.inf
    return grid, values, WIDE_BANDS[first : last + 1], draw(st.sampled_from(["power", "db"]))


class TestBandAverageAgainstMaskLoop:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(case=band_average_cases())
    def test_same_bits_as_the_mask_loop(self, case):
        grid, values, bands, mode = case
        table = band_average(grid, values, bands, mode=mode)
        want_values, want_coverage = reference_band_average(grid, values, bands, mode)
        assert table.values.tobytes() == want_values.tobytes()
        assert table.coverage.tobytes() == want_coverage.tobytes()


    @pytest.mark.parametrize("mode", ["power", "db"])
    def test_same_bits_past_the_temporary_elision_threshold(self, mode):
        # 49 001 bins, above the 32 768 from which numpy may compute temporaries in place
        grid = FrequencyGrid.from_range(100.0, 5000.0, 0.1)
        assert len(grid) == 49_001
        rng = np.random.default_rng(49_001)
        values = rng.uniform(-20.0, 120.0, len(grid))
        kind = rng.random(len(grid))
        values[kind < 0.05] = np.nan
        values[(kind >= 0.05) & (kind < 0.08)] = np.inf
        bands = third_octave_bands(100.0, 5000.0)
        table = band_average(grid, values, bands, mode=mode)
        want_values, want_coverage = reference_band_average(grid, values, bands, mode)
        assert table.values.tobytes() == want_values.tobytes()
        assert table.coverage.tobytes() == want_coverage.tobytes()


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

    def test_power_mode_keeps_a_bin_finite_where_the_power_sum_overflows(self):
        runs = np.array([[-4000.0, 0.0, np.nan], [-4010.0, 20.0, np.nan]])
        mean, _ = average_repetitions(runs, mode="power")
        assert mean[0] == pytest.approx(-4010.0 - 10.0 * math.log10(0.55), rel=1e-12)
        # the other bins keep the bits they get on their own
        assert mean[1:].tobytes() == average_repetitions(runs[:, 1:], mode="power")[0].tobytes()

    def test_missing_bins_excluded(self):
        mean, spread = average_repetitions(np.array([[10.0, np.nan], [20.0, np.nan]]))
        assert mean[0] == pytest.approx(15.0)
        assert np.isnan(mean[1])
        assert np.isnan(spread[1])

    def test_not_2d_or_no_run_rejected(self):
        for runs in ([1.0, 2.0], np.empty((0, 3)), [[[1.0]]]):
            with pytest.raises(ValueError, match="n_runs"):
                average_repetitions(runs)


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

    def test_two_finite_levels_whose_difference_overflows_raise_naming_the_band(self):
        before = self.make_table([70.0, 1e308, 70.0])
        after = self.make_table([60.0, -1e308, 60.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy warning on the way
            with pytest.raises(ValueError, match=r"^level difference overflows in bands \[630\.0\] Hz$"):
                insertion_loss(before, after)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1, 1.5])
    def test_coverage_outside_the_unit_interval_rejected(self, bad):
        bands = tuple(band_from_nominal(n) for n in (500.0, 630.0, 800.0))
        assert BandTable(bands, np.zeros(3), np.array([0.0, 0.5, 1.0])).coverage[2] == 1.0
        with pytest.raises(ValueError, match=r"coverage must lie in \[0, 1\]"):
            BandTable(bands, np.zeros(3), np.array([0.0, bad, 1.0]))

    def test_same_bands(self):
        a = BandTable.from_values(third_octave_bands(100.0, 200.0), [1.0, 2.0, 3.0, 4.0])
        b = BandTable.from_values(third_octave_bands(100.0, 200.0), [9.0, 9.0, 9.0, 9.0])
        c = BandTable.from_values(third_octave_bands(125.0, 250.0), [1.0, 2.0, 3.0, 4.0])
        assert a.bands == b.bands
        assert a.bands != c.bands
