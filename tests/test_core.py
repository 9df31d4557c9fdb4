import copy
import importlib
import math
import pickle
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import tubeloss
from tubeloss import (
    AirProperties,
    BandTable,
    FrequencyGrid,
    LayerModel,
    MaterialSpec,
    MicSpectra,
    SynthScenario,
    ThirdOctaveBand,
    TransferMatrix,
    TubeGeometry,
    analyze_four_mic,
    decompose_four_mic,
    plane_wave_cutoff,
    third_octave_bands,
)
from tubeloss.core import Record

from helpers import AIR, GEOMETRY, four_mic_spectra


class TestWavenumber:
    """``FrequencyGrid.wavenumbers``: k = 2 pi f / c on every bin."""

    def test_definition_collapse(self):
        # f = c / (2 pi) makes k exactly 1 rad/m
        k = FrequencyGrid([AIR.sound_speed / (2.0 * math.pi)]).wavenumbers(AIR)
        assert k[0] == pytest.approx(1.0, rel=1e-14)

    def test_direct_evaluation_1000_hz(self):
        oracle = 2.0 * math.pi * 1000.0 / 343.2
        assert FrequencyGrid([1000.0]).wavenumbers(AIR)[0] == pytest.approx(oracle, rel=1e-15)
        assert oracle == pytest.approx(18.3076, abs=5e-5)

    def test_domain_errors(self):
        # a frequency that is not positive never reaches a wavenumber: no grid holds one
        for frequencies in ([0.0], [-10.0], np.array([100.0, 0.0])):
            with pytest.raises(ValueError, match="frequencies must be positive"):
                FrequencyGrid(frequencies)

    @given(
        f=st.floats(min_value=1.0, max_value=1e5),
        scale=st.floats(min_value=1.5, max_value=8.0),
    )
    def test_linear_in_f_inverse_in_c(self, f, scale):
        base = FrequencyGrid([f]).wavenumbers(AIR)[0]
        assert FrequencyGrid([scale * f]).wavenumbers(AIR)[0] == pytest.approx(scale * base, rel=1e-12)
        faster = AirProperties(sound_speed=AIR.sound_speed * scale)
        assert FrequencyGrid([f]).wavenumbers(faster)[0] == pytest.approx(base / scale, rel=1e-12)

    def test_array_input(self):
        k = FrequencyGrid([100.0, 200.0]).wavenumbers(AIR)
        assert k.shape == (2,)
        assert k[1] == pytest.approx(2 * k[0], rel=1e-14)


class TestPlaneWaveCutoff:
    def test_direct_evaluation(self):
        oracle = 1.841 * 343.2 / (math.pi * 0.0998)
        got = plane_wave_cutoff(GEOMETRY, AIR)
        assert got == pytest.approx(oracle, rel=1e-15)
        assert got == pytest.approx(2015.2, abs=0.1)

    def test_inverse_in_diameter(self):
        wide = TubeGeometry(GEOMETRY.mic_positions, GEOMETRY.sample_thickness, 2 * GEOMETRY.tube_diameter)
        assert plane_wave_cutoff(wide, AIR) == pytest.approx(plane_wave_cutoff(GEOMETRY, AIR) / 2, rel=1e-12)

    def test_linear_in_c(self):
        fast = AirProperties(sound_speed=2 * 343.2)
        assert plane_wave_cutoff(GEOMETRY, fast) == pytest.approx(
            2 * plane_wave_cutoff(GEOMETRY, AIR), rel=1e-12
        )


class TestAirProperties:
    def test_impedance_is_product(self):
        assert AIR.impedance == pytest.approx(1.204 * 343.2, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            AirProperties(density=0.0)
        with pytest.raises(ValueError):
            AirProperties(sound_speed=-1.0)

    @pytest.mark.parametrize("field", ["density", "sound_speed"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValueError, match="positive and finite"):
            AirProperties(**{field: value})

    @pytest.mark.parametrize(
        "density, sound_speed, impedance",
        [(1e300, 1e300, "inf"), (1e-200, 1e-200, "0.0"), (1e-160, 1e-150, "1e-310")],
        ids=["impedance overflows", "impedance underflows to 0", "its inverse overflows"],
    )
    def test_air_whose_impedance_or_its_inverse_is_not_finite_is_refused(self, density, sound_speed, impedance):
        # every model divides by rho0 c and multiplies by its inverse
        message = f"air impedance density * sound_speed = {impedance}: it and its inverse must be positive and finite"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AirProperties(density, sound_speed)

    def test_informational_fields_optional(self):
        air = AirProperties(temperature=23.7, relative_humidity=66.3)
        assert air.impedance == AIR.impedance


class TestTubeGeometry:
    def test_validation(self):
        with pytest.raises(ValueError):
            TubeGeometry((-0.2, -0.3, 0.2, 0.3), 0.001, 0.1)
        with pytest.raises(ValueError):
            TubeGeometry((-0.3, -0.2, 0.3, 0.2), 0.001, 0.1)
        with pytest.raises(ValueError):
            TubeGeometry((-0.3, -0.2, 0.2, 0.3), 0.0, 0.1)
        with pytest.raises(ValueError):
            TubeGeometry((-0.3, -0.2, 0.2, 0.3), 0.001, 0.0)

    @pytest.mark.parametrize(
        "args",
        [
            ((-math.inf, -0.2, 0.2, 0.3), 0.001, 0.1),
            ((-0.3, -0.2, 0.2, math.inf), 0.001, 0.1),
            ((-0.3, math.nan, 0.2, 0.3), 0.001, 0.1),
            ((-0.3, -0.2, 0.2, 0.3), math.inf, 0.1),
            ((-0.3, -0.2, 0.2, 0.3), 0.001, math.inf),
        ],
        ids=["x1", "x4", "x2-nan", "thickness", "diameter"],
    )
    def test_non_finite_values_rejected(self, args):
        with pytest.raises(ValueError, match="finite"):
            TubeGeometry(*args)

    def test_spacings(self):
        # each pair's spacing s = 0.08 m blinds it where k s = pi, at c / (2 s) = 2145 Hz
        x1, x2, x3, x4 = GEOMETRY.mic_positions
        assert (x2 - x1, x4 - x3) == (pytest.approx(0.08), pytest.approx(0.08))
        grid = FrequencyGrid([2000.0, AIR.sound_speed / (2.0 * 0.08)])
        spectra = four_mic_spectra(grid, GEOMETRY, 1.0, 0.2, 0.5, 0.1)
        amps = decompose_four_mic(spectra, GEOMETRY, AIR)
        assert amps.upstream_singular.tolist() == amps.downstream_singular.tolist() == [False, True]
        assert grid.frequencies[1] == 2145.0


class TestFrequencyGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            FrequencyGrid([])
        with pytest.raises(ValueError):
            FrequencyGrid([100.0, 100.0])
        with pytest.raises(ValueError):
            FrequencyGrid([200.0, 100.0])
        with pytest.raises(ValueError):
            FrequencyGrid([0.0, 100.0])
        with pytest.raises(ValueError):
            FrequencyGrid([100.0, np.inf])

    @pytest.mark.parametrize("frequencies", [[0.0], [-10.0], [100.0, 0.0]])
    def test_a_frequency_that_is_not_positive_is_rejected(self, frequencies):
        # the constructor's own rejection is TestWavenumber.test_domain_errors
        with pytest.raises(ValueError, match="frequencies must be positive"):
            FrequencyGrid.from_range(frequencies[-1], 100.0, 10.0)

    def test_from_range_inclusive(self):
        grid = FrequencyGrid.from_range(100.0, 2000.0, 10.0)
        assert len(grid) == 191
        assert grid.frequencies[0] == 100.0
        assert grid.frequencies[-1] == 2000.0

    @pytest.mark.parametrize("f", [100.0, 1e16], ids=["small", "large"])
    def test_from_range_of_one_frequency_is_one_bin(self, f):
        # at 1e16, f + step / 2 rounds to f, so arange alone would give no bin
        assert FrequencyGrid.from_range(f, f, 1.0).frequencies.tolist() == [f]

    def test_from_range_puts_each_bin_a_whole_number_of_steps_from_f_min(self):
        # numpy's arange steps by fl(f_min + step) - f_min, which drifts from f_min + i * step
        grid = FrequencyGrid.from_range(100.0, 1800.0, 0.1)
        assert len(grid) == 17_001
        assert grid.frequencies[-1] == 1800.0
        assert grid.frequencies[[1, 9000]].tolist() == [100.0 + 0.1, 100.0 + 0.1 * 9000]

    def test_from_range_near_the_spacing_of_doubles_ends_at_f_max(self):
        # steps of 0.2 Hz round to the 0.125 Hz spacing at 1e15, but stay distinct and stop at f_max
        f = FrequencyGrid.from_range(1e15, 1e15 + 1, 0.2).frequencies
        assert f[-1] == 1e15 + 1
        assert (np.diff(f) > 0).all()
        # 2**52 + 10 + 1 / 2 is a tie that rounds down to 2**52 + 10, which a count taken from it left out
        f = FrequencyGrid.from_range(2.0**52, 2.0**52 + 10, 1.0).frequencies
        assert len(f) == 11 and f[-1] == 2.0**52 + 10

    def test_from_range_caps_the_bin_count(self):
        assert len(FrequencyGrid.from_range(1.0, 1_000_000.0, 1.0)) == 1_000_000
        for f_max, step in ((1_000_001.0, 1.0), (1_000_000.7, 1.0), (5000.0, 1e-12)):
            with pytest.raises(ValueError, match="grid would have more than 1000000 bins"):
                FrequencyGrid.from_range(1.0, f_max, step)

    @pytest.mark.parametrize(
        "f_min, f_max, step, spacing",
        [
            (1e15, 1e15 + 1, 0.1, 0.125),
            (1e16, 1.0000000000000004e16, 1.0, 2.0),
            (100.0, 100.00000000000003, 5e-15, 1.4210854715202004e-14),
        ],
    )
    def test_a_step_below_the_spacing_of_doubles_is_named(self, f_min, f_max, step, spacing):
        # arange would fill from its first rounded step: bins 0.125 Hz apart past f_max, or repeated bins
        message = f"step {step!r} is below the spacing of doubles at f_max ({spacing!r})"
        with pytest.raises(ValueError) as caught:
            FrequencyGrid.from_range(f_min, f_max, step)
        assert str(caught.value) == message
        assert len(FrequencyGrid.from_range(f_min, f_max, spacing)) > 1
        assert FrequencyGrid.from_range(f_max, f_max, step).frequencies.tolist() == [f_max]

    def test_a_step_that_rounds_two_bins_onto_one_double_is_named(self):
        # 2**52 - 0.5 + 1 and + 2 are ties between doubles 1 apart, and both round to even, 2**52 + 2
        message = "step 1.0 rounds two bins onto one double; doubles at f_max are 1.0 apart"
        with pytest.raises(ValueError) as caught:
            FrequencyGrid.from_range(4503599627370495.5, 4503599627370506.0, 1.0)
        assert str(caught.value) == message
        assert len(FrequencyGrid.from_range(4503599627370496.0, 4503599627370506.0, 1.0)) > 1  # no ties

    def test_wavenumbers_never_stale(self):
        grid = FrequencyGrid([100.0, 200.0])
        k_default = grid.wavenumbers(AIR)
        k_fast = grid.wavenumbers(AirProperties(sound_speed=686.4))
        assert np.allclose(k_fast, k_default / 2.0)

    def test_immutable(self):
        grid = FrequencyGrid([100.0, 200.0])
        with pytest.raises(ValueError):
            grid.frequencies[0] = 50.0


class TestMicSpectra:
    def test_length_and_finiteness(self):
        grid = FrequencyGrid([100.0, 200.0])
        for shape in ((3, 2), (5, 2), (4, 1), (4, 3, 1), (4, 0, 2), (4, 1, 1, 2), (4,), (2,)):
            with pytest.raises(ValueError, match="mic pressures must have shape"):
                MicSpectra(grid, np.ones(shape, dtype=complex))
        with pytest.raises(ValueError, match="spectrum values must be finite"):
            MicSpectra(grid, [[1.0, 1.0]] * 3 + [[1.0, np.nan]])

    def test_one_measurement_or_repetitions_locked_and_c_contiguous(self):
        grid = FrequencyGrid([100.0, 200.0])
        for values in (np.ones((4, 2)), np.ones((2, 4)).T, np.ones((4, 3, 2), dtype=complex)):
            spectra = MicSpectra(grid, values)
            assert spectra.grid is grid
            assert spectra.pressures.shape == values.shape
            assert spectra.pressures.dtype == complex
            assert spectra.pressures.flags.c_contiguous
            assert not spectra.pressures.flags.writeable

    def test_iteration_gives_each_microphones_values(self):
        grid = FrequencyGrid([100.0, 200.0])
        spectra = MicSpectra(grid, np.arange(8.0).reshape(4, 2))
        assert [mic.values.tolist() for mic in spectra] == spectra.pressures.tolist()

    def test_equal_valued_grids_match(self):
        a = FrequencyGrid([100.0, 200.0])
        b = FrequencyGrid([100.0, 200.0])
        assert a == b


class TestMaterialSpec:
    def test_consistent_bulk_density_accepted(self):
        MaterialSpec("pure_pvc_sheet", 1.012, 1.216, bulk_density=1.216 / 0.001012)

    def test_inconsistent_bulk_density_rejected(self):
        with pytest.raises(ValueError):
            MaterialSpec("pure_pvc_sheet", 1.012, 1.216, bulk_density=1.03 * 1.216 / 0.001012)

    def test_positive_fields(self):
        with pytest.raises(ValueError):
            MaterialSpec("x", 0.0, 1.0)
        with pytest.raises(ValueError):
            MaterialSpec("x", 1.0, -1.0)

    @pytest.mark.parametrize("bulk_density", [0.0, -2.0, math.nan])
    def test_a_bulk_density_that_is_not_positive_is_rejected(self, bulk_density):
        with pytest.raises(ValueError, match="^sheet: bulk density must be positive$"):
            MaterialSpec("sheet", 0.89, 1.135, bulk_density=bulk_density)

    def test_thickness_conversion(self):
        # the data sheet's thickness is in mm: read as metres, the same sheet would
        # need a bulk density a thousand times smaller
        MaterialSpec("pvc_coated_pe_fabric", 0.89, 1.135, bulk_density=1.135 / 0.00089)
        with pytest.raises(ValueError, match="inconsistent"):
            MaterialSpec("pvc_coated_pe_fabric", 0.89, 1.135, bulk_density=1.135 / 0.89)


class TestSurfaceDensity:
    """``MaterialSpec`` checks surface density against thickness x bulk density."""

    def test_identity(self):
        MaterialSpec("unit", 1000.0, 1.0, bulk_density=1.0)  # 1 m at 1 kg/m^3 is 1 kg/m^2

    def test_pure_pvc_round_trip(self):
        # 1.012 mm sheet at 1.216 kg/m^2 implies its bulk density; within 1 percent of it
        # the sheet is accepted, beyond it rejected
        implied_density = 1.216 / 0.001012
        for scale in (0.995, 1.0, 1.005):
            MaterialSpec("pure_pvc_sheet", 1.012, 1.216, bulk_density=scale * implied_density)
        for scale in (0.985, 1.015):
            with pytest.raises(ValueError, match="inconsistent"):
                MaterialSpec("pure_pvc_sheet", 1.012, 1.216, bulk_density=scale * implied_density)

    def test_coated_fabric_forward_check(self):
        # 0.89 mm at 1275.3 kg/m^3, back-solved from 1.135 kg/m^2
        MaterialSpec("pvc_coated_pe_fabric", 0.89, 1.135, bulk_density=1275.3)
        with pytest.raises(ValueError, match=r"inconsistent with thickness x bulk density = 1\.13502 kg/m\^2"):
            MaterialSpec("pvc_coated_pe_fabric", 0.89, 1.16, bulk_density=1275.3)

    def test_domain_errors(self):
        cases = ((0.0, 1.0, "thickness"), (-1.0, 1.0, "thickness"), (1.0, 0.0, "surface density"))
        for thickness, surface, field in cases:
            with pytest.raises(ValueError, match=f"x: {field} must be positive and finite"):
                MaterialSpec("x", thickness, surface, bulk_density=1000.0)


class TestPublicApi:
    def test_all_names_resolve_and_star_import_binds_exactly_them(self):
        assert len(tubeloss.__all__) == len(set(tubeloss.__all__)) == 46
        for name in tubeloss.__all__:
            assert hasattr(tubeloss, name), name
        namespace: dict = {}
        exec("from tubeloss import *", namespace)
        namespace.pop("__builtins__")
        assert sorted(namespace) == sorted(tubeloss.__all__)


def _records() -> dict:
    """One instance of each of the thirteen record classes, by class name."""
    grid = FrequencyGrid([100.0, 200.0])
    scenario = SynthScenario(LayerModel.limp_mass(1.135), GEOMETRY, AIR, snr_db=40.0, seed=3)
    spectra = four_mic_spectra(grid, GEOMETRY, 1.0, 0.5, 0.5, 0.0)
    analysis = analyze_four_mic(spectra, GEOMETRY, AIR)
    records = [
        AIR, GEOMETRY, grid, spectra, MaterialSpec("sheet", 0.89, 1.135), ThirdOctaveBand(0),
        BandTable.from_values([ThirdOctaveBand(0)], [1.0]), scenario.sample[0], scenario,
        analysis, analysis.amplitudes, scenario.sample[0].matrix_on(grid, AIR), analysis.indicators,
    ]
    return {type(record).__name__: record for record in records}


RECORDS = _records()

# the records whose fields are plain values, not arrays
VALUE_RECORDS = ("AirProperties", "TubeGeometry", "MaterialSpec", "ThirdOctaveBand", "LayerModel", "SynthScenario")
ARRAY_RECORDS = tuple(name for name in RECORDS if name not in VALUE_RECORDS)


class TestRecords:
    """The immutable records: refused assignment, value semantics, ``replace``, no code at import."""

    def test_importing_the_command_line_leaves_dataclasses_unimported(self):
        src = str(Path(tubeloss.__file__).parents[1])
        code = f"import sys; sys.path.insert(0, {src!r}); import tubeloss.cli; print('dataclasses' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr

    @pytest.mark.parametrize("name", list(RECORDS))
    def test_fields_refuse_assignment_and_deletion(self, name):
        record = RECORDS[name]
        assert len(RECORDS) == 13 and not hasattr(record, "__dict__")
        field = record.__slots__[0]
        before = repr(record)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert repr(record) == before

    @pytest.mark.parametrize("name", VALUE_RECORDS)
    def test_value_records_compare_hash_copy_and_pickle_by_value(self, name):
        record = RECORDS[name]
        twin = type(record)(*(getattr(record, field) for field in record.__slots__))
        assert twin is not record and twin == record and hash(twin) == hash(record)
        assert repr(twin) == repr(record)
        assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))

    @pytest.mark.parametrize("name", ARRAY_RECORDS)
    def test_array_records_compare_by_value_and_refuse_hash(self, name):
        record = RECORDS[name]
        twin = pickle.loads(pickle.dumps(record))  # rebuilt through __init__ on fresh arrays
        assert twin is not record and twin == record and not twin != record
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)

    def test_array_fields_compare_by_value_with_nan_equal_to_nan(self):
        bands = third_octave_bands(100.0, 200.0)
        a = BandTable.from_values(bands, [1.0, np.nan, 3.0, 4.0])
        assert a == BandTable.from_values(bands, [1.0, np.nan, 3.0, 4.0])
        assert a != BandTable.from_values(bands, [1.0, np.nan, 3.0, 5.0])
        assert a != BandTable.from_values(bands, [1.0, 2.0, 3.0, 4.0])
        assert a != BandTable.from_values(third_octave_bands(125.0, 250.0), [1.0, np.nan, 3.0, 4.0])
        grid = FrequencyGrid([100.0, 200.0])
        assert grid == FrequencyGrid(np.array([100.0, 200.0])) != FrequencyGrid([100.0, 300.0])
        assert grid != FrequencyGrid([100.0]) and grid != AIR
        spectra = RECORDS["MicSpectra"]
        assert spectra != MicSpectra(grid, 2 * spectra.pressures)

    def test_every_class_with_slots_is_a_record(self):
        names = (info.name for info in pkgutil.iter_modules(tubeloss.__path__))
        modules = [importlib.import_module(f"tubeloss.{name}") for name in names]
        slotted = [
            cls
            for module in modules
            for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__ and "__slots__" in vars(cls)
        ]
        assert len(slotted) == 15  # Record, PerBinArrays and the thirteen records
        assert [cls.__name__ for cls in slotted if not issubclass(cls, Record)] == []

    def test_per_bin_arrays_bind_by_position_or_name_and_refuse_a_bad_call(self):
        matrix = RECORDS["TransferMatrix"]
        grid, t11, t12, t21, t22 = matrix._fields()
        bound = TransferMatrix(grid, t11, t12, t22=t22, t21=t21)  # locked arrays are kept, not copied
        assert all(a is b for a, b in zip(bound._fields(), matrix._fields()))
        for args, named in [
            ((t11, t12, t21), {}),  # one array short
            ((t11, t12, t21, t22, t22), {}),  # one too many
            ((t11, t12, t21, t22), {"t11": t11}),  # twice
            ((t11, t12, t21), {"t23": t22}),  # unknown
        ]:
            with pytest.raises(TypeError, match=r"^TransferMatrix takes grid, t11, t12, t21, t22$"):
                TransferMatrix(grid, *args, **named)

    def test_reprs_read_as_a_dataclass_repr(self):
        assert repr(AirProperties()) == (
            "AirProperties(density=1.204, sound_speed=343.2, temperature=None, relative_humidity=None)"
        )
        assert repr(LayerModel.limp_mass(1.135)) == (
            "LayerModel(kind='limp-mass', surface_density=1.135, thickness=0.0, matrix=None, passive_symmetric=False)"
        )

    def test_replace_changes_one_field_and_validates_again(self):
        scenario = RECORDS["SynthScenario"]
        reseeded = scenario.replace(seed=7)
        assert (reseeded.seed, reseeded.snr_db, reseeded.sample) == (7, 40.0, scenario.sample)
        assert reseeded != scenario and reseeded.replace(seed=3) == scenario
        with pytest.raises(ValueError, match="termination ratio magnitude must be below 1"):
            scenario.replace(termination_ratio=2)
        with pytest.raises(TypeError):
            scenario.replace(no_such_field=1)
