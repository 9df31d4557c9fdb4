"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
Statistical criteria use seeds pinned after one-off verification; everything
else is deterministic.
"""
import time
import warnings

import numpy as np

from tubeloss import (
    BandTable,
    FrequencyGrid,
    LayerModel,
    SynthScenario,
    acoustic_indicators,
    analyze_four_mic,
    average_repetitions,
    band_average,
    boundary_states,
    cascade,
    insertion_loss,
    mass_law_stl,
    reconstruct_one_load,
    stack_indicators,
    synth_mic_pressures,
    third_octave_bands,
)
from tubeloss.cli import main as cli_main
from tubeloss.io_files import read_band_csv, write_band_csv

from helpers import AIR, GEOMETRY, build_passive_cascade, determinant, limp_mass_stl_oracle, synth_room_levels

GRID = FrequencyGrid.from_range(100.0, 2000.0, 10.0)
PINNED_SEED = 1200  # verified once, then frozen (see test_synth.py)


def check(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def run_pipeline(sample, seed=None, snr_db=None, termination_ratio=0j):
    scenario = SynthScenario(
        sample=sample,
        geometry=GEOMETRY,
        air=AIR,
        termination_ratio=termination_ratio,
        snr_db=snr_db,
        seed=seed or 0,
    )
    spectra = synth_mic_pressures(scenario, GRID)
    return analyze_four_mic(spectra, geometry=GEOMETRY, air=AIR)


def test_criterion_1_limp_mass_round_trip():
    start = time.perf_counter()
    analysis = run_pipeline(LayerModel.limp_mass(1.135))
    elapsed = time.perf_counter() - start

    oracle = limp_mass_stl_oracle(GRID.frequencies, 1.135)
    retained = analysis.indicators.valid
    worst = float(np.max(np.abs(analysis.indicators.stl_db[retained] - oracle[retained])))
    at_1000 = float(analysis.indicators.stl_db[GRID.frequencies == 1000.0][0])
    ok = worst < 1e-6 and abs(at_1000 - 18.78) <= 0.01 and elapsed < 1.0 and retained.all()
    check(
        1,
        ok,
        f"limp-mass pipeline vs closed form: worst {worst:.2e} dB (<1e-6), "
        f"STL(1000 Hz) = {at_1000:.4f} dB (18.78 +/- 0.01), runtime {elapsed * 1e3:.0f} ms (<1 s)",
    )


def test_criterion_2_identity_sample():
    analysis = run_pipeline(LayerModel.identity())
    retained = analysis.indicators.valid
    worst_stl = float(np.max(np.abs(analysis.indicators.stl_db[retained])))
    worst_r = float(np.max(np.abs(analysis.indicators.reflection[retained])))
    ok = worst_stl < 1e-9 and worst_r < 1e-9
    check(
        2,
        ok,
        f"identity sample: max |STL| = {worst_stl:.2e} dB (<1e-9), "
        f"max |R| = {worst_r:.2e} (<1e-9)",
    )


def test_criterion_3_matrix_invariants():
    # reconstructed matrices from a spread of scenarios, noisy runs included
    analyses = [
        run_pipeline(LayerModel.limp_mass(1.135)),
        run_pipeline(LayerModel.identity()),
        run_pipeline(
            (
                LayerModel.limp_mass(0.224),
                LayerModel.air_gap(0.005),
                LayerModel.limp_mass(1.216),
            )
        ),
        run_pipeline(LayerModel.limp_mass(0.644), termination_ratio=0.25 * np.exp(0.7j)),
        run_pipeline(LayerModel.limp_mass(1.135), seed=PINNED_SEED, snr_db=40.0),
    ]
    matrices = [
        reconstruct_one_load(GRID, *boundary_states(a.amplitudes, GEOMETRY.sample_thickness, AIR)) for a in analyses
    ]
    symmetric = all(np.array_equal(m.t11[m.valid], m.t22[m.valid]) for m in matrices)
    worst_det = max(float(np.max(np.abs(determinant(m)[m.valid] - 1.0))) for m in matrices)

    # energy identity on lossless oracles
    worst_energy_err = 0.0
    for layers in (
        (LayerModel.limp_mass(1.216),),
        (LayerModel.air_gap(0.0223),),
        (LayerModel.limp_mass(0.224), LayerModel.air_gap(0.005), LayerModel.limp_mass(1.135)),
    ):
        matrix = cascade(layers, GRID, AIR)
        thickness = sum(l.thickness for l in layers)
        indicators = acoustic_indicators(matrix, thickness, AIR)
        t, r = indicators.transmission, indicators.reflection
        worst_energy_err = max(
            worst_energy_err, float(np.max(np.abs(np.abs(r) ** 2 + np.abs(t) ** 2 - 1.0)))
        )

    # passivity bound on 1000 randomized cascades
    rng = np.random.default_rng(20260810)
    small_grid = FrequencyGrid.from_range(100.0, 3000.0, 290.0)
    worst_excess = -np.inf
    for _ in range(1000):
        matrix, thickness = build_passive_cascade(rng, small_grid)
        indicators = acoustic_indicators(matrix, thickness, AIR)
        t, r = indicators.transmission, indicators.reflection
        worst_excess = max(worst_excess, float(np.max(np.abs(r) ** 2 + np.abs(t) ** 2 - 1.0)))

    ok = symmetric and worst_det < 1e-9 and worst_energy_err < 1e-9 and worst_excess <= 1e-9
    check(
        3,
        ok,
        f"T11 == T22 bitwise: {symmetric}; max |det-1| = {worst_det:.2e} (<1e-9); "
        f"lossless energy error {worst_energy_err:.2e} (<1e-9); "
        f"1000 passive cascades max(|R|^2+|T|^2-1) = {worst_excess:.2e} (<=1e-9)",
    )


def test_criterion_4_mass_law_table():
    pvc = mass_law_stl(1000.0, 1.216)
    coated = mass_law_stl(1000.0, 1.135)
    rng = np.random.default_rng(4)
    f = rng.uniform(50.0, 5000.0, 200)
    m = rng.uniform(0.05, 5.0, 200)
    doubling_f = mass_law_stl(2 * f, m[0]) - mass_law_stl(f, m[0])
    doubling_m = mass_law_stl(f[0], 2 * m) - mass_law_stl(f[0], m)
    slope = 20.0 * np.log10(2.0)
    slope_ok = np.all(np.abs(doubling_f - slope) < 1e-9) and np.all(
        np.abs(doubling_m - slope) < 1e-9
    )
    ok = abs(pvc - 13.70) <= 0.01 and abs(coated - 13.10) <= 0.01 and bool(slope_ok)
    check(
        4,
        ok,
        f"mass law at 1000 Hz: {pvc:.4f} dB (13.70 +/- 0.01) and {coated:.4f} dB "
        f"(13.10 +/- 0.01); doubling slope +{slope:.4f} dB everywhere: {slope_ok}",
    )


def test_criterion_5_band_machinery():
    bands = third_octave_bands(100.0, 5000.0)
    nominals = [b.nominal for b in bands]
    expected = [
        100.0, 125.0, 160.0, 200.0, 250.0, 315.0, 400.0, 500.0, 630.0, 800.0,
        1000.0, 1250.0, 1600.0, 2000.0, 2500.0, 3150.0, 4000.0, 5000.0,
    ]
    worst_gap = max(
        abs(right.lower - left.upper) / left.upper for left, right in zip(bands, bands[1:])
    )
    ok = len(bands) == 18 and nominals == expected and worst_gap < 1e-9
    check(
        5,
        ok,
        f"third_octave_bands(100, 5000): {len(bands)} bands (18), nominal centers standard: "
        f"{nominals == expected}, worst tiling gap {worst_gap:.2e} rel (<1e-9)",
    )


def test_criterion_6_insertion_loss_wiring(tmp_path):
    bands = third_octave_bands(100.0, 5000.0)
    # quarter-dB transmission values are exact in binary floating point, so
    # "exactly" is meant and checked bit for bit through the CLI round trip
    rng = np.random.default_rng(6)
    transmission = BandTable.from_values(bands, rng.integers(1, 100, len(bands)) * 0.25)
    source = BandTable.from_values(bands, np.full(len(bands), 70.0))
    l_r0, l_rs = synth_room_levels(source, transmission)

    before, after = tmp_path / "before.csv", tmp_path / "after.csv"
    write_band_csv(before, {"L_r0": l_r0})
    write_band_csv(after, {"L_rs": l_rs})
    report_path = tmp_path / "il.json"
    band_csv = tmp_path / "il_bands.csv"
    code = cli_main(
        ["il", "--before", str(before), "--after", str(after),
         "--output", str(report_path), "--band-csv", str(band_csv)]
    )
    via_cli = read_band_csv(band_csv)["il_db"]
    exact = bool(np.array_equal(via_cli.values, transmission.values))

    anti = True
    for _ in range(50):
        a = BandTable.from_values(bands, rng.uniform(30.0, 90.0, len(bands)))
        b = BandTable.from_values(bands, rng.uniform(30.0, 90.0, len(bands)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # negative IL is expected here
            forward = insertion_loss(a, b)
            backward = insertion_loss(b, a)
        anti = anti and bool(np.array_equal(forward.values, -backward.values))

    ok = code == 0 and exact and anti
    check(
        6,
        ok,
        f"cmd_il reproduces the known transmission table exactly: {exact}; "
        f"antisymmetry on 50 random tables: {anti}",
    )


def test_criterion_7_noise_robustness():
    clean = limp_mass_stl_oracle(GRID.frequencies, 1.135)
    runs = []
    for i in range(5):
        analysis = run_pipeline(LayerModel.limp_mass(1.135), seed=PINNED_SEED + i, snr_db=40.0)
        runs.append(np.where(analysis.indicators.valid, analysis.indicators.stl_db, np.nan))
    mean, _ = average_repetitions(np.array(runs), mode="db")
    bands = third_octave_bands(125.0, 1600.0)
    noisy = band_average(GRID, mean, bands).values
    reference = band_average(GRID, clean, bands).values
    worst = float(np.max(np.abs(noisy - reference)))
    ok = worst < 0.2 and len(bands) == 12
    check(
        7,
        ok,
        f"SNR 40 dB, 5-repetition mean (pinned seed {PINNED_SEED}): max band deviation "
        f"{worst:.4f} dB (<0.2) across the 12 bands 125..1600 Hz",
    )


def test_criterion_8_multilayer_direction():
    grid = FrequencyGrid.from_range(400.0, 1800.0, 5.0)
    bands = third_octave_bands(500.0, 1600.0)
    stack, layer_tables = stack_indicators(
        (
            LayerModel.limp_mass(0.224),
            LayerModel.air_gap(0.005),
            LayerModel.limp_mass(1.135),
        ),
        grid,
        AIR,
        bands=bands,
    )
    margins = band_average(grid, stack.stl_db, bands).values - layer_tables[0].values
    ok = bool(np.all(margins > 0.0))
    check(
        8,
        ok,
        "stack [limp 0.224 | air 5 mm | limp 1.135] beats limp 0.224 alone in every band "
        f"500..1600 Hz; margins {np.round(margins, 2).tolist()} dB (all > 0)",
    )


def test_criterion_9_informational_consistency():
    # Reported, not gated: the field-incidence prediction for the coated
    # fabric spans the same order as the measured mid-to-high range (11-22 dB).
    f = np.linspace(600.0, 1600.0, 101)
    predicted = mass_law_stl(f, 1.135, "paper")
    low, high = float(predicted.min()), float(predicted.max())
    span_ok = abs(low - 8.7) < 0.1 and abs(high - 17.2) < 0.1
    check(
        9,
        span_ok,
        f"informational: field-incidence prediction for m_s = 1.135 spans "
        f"{low:.2f}..{high:.2f} dB over 600..1600 Hz (expected ~8.7..17.2), same order as "
        f"the measured 11..22 dB range; comparison reported, not gated",
    )
