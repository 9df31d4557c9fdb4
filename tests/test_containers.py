"""Contract shared by the per-frequency containers: shape-checked, private, read-only arrays."""
import numpy as np
import pytest

from tubeloss import (
    AcousticIndicators,
    BandTable,
    FrequencyGrid,
    LayerModel,
    MicSpectra,
    PlaneWaveAmplitudes,
    TransferMatrix,
    acoustic_indicators,
    analyze_four_mic,
    boundary_states,
    decompose_four_mic,
    reconstruct_one_load,
    third_octave_bands,
)
from tubeloss import bands, core, transfer

from helpers import AIR, GEOMETRY, four_mic_spectra, noisy_spectra, stacked

GRID = FrequencyGrid.from_range(100.0, 500.0, 100.0)
BANDS = third_octave_bands(100.0, 500.0)

# name -> (shape of each array for one measurement, constructor from the array dict,
# {array field: dtype}); the last axis holds one entry per bin or band
CONTAINERS = {
    "PlaneWaveAmplitudes": (
        (len(GRID),),
        lambda arrays: PlaneWaveAmplitudes(GRID, **arrays),
        {"a": complex, "b": complex, "c": complex, "d": complex},
    ),
    "TransferMatrix": (
        (len(GRID),),
        lambda arrays: TransferMatrix(GRID, **arrays),
        {"t11": complex, "t12": complex, "t21": complex, "t22": complex},
    ),
    "AcousticIndicators": (
        (len(GRID),),
        lambda arrays: AcousticIndicators(GRID, **arrays),
        {"transmission": complex, "reflection": complex, "stl_db": float},
    ),
    "MicSpectra": (
        (4, len(GRID)),
        lambda arrays: MicSpectra(GRID, arrays["pressures"]),
        {"pressures": complex},
    ),
    "BandTable": (
        (len(BANDS),),
        lambda arrays: BandTable(BANDS, arrays["values"], arrays["coverage"]),
        {"values": float, "coverage": float},
    ),
}


def inputs(shape: tuple, fields: dict) -> dict:
    """Finite arrays of ``shape`` and each field's dtype, with entries x where 1 - x != x."""
    out = {}
    for name, dtype in fields.items():
        out[name] = np.full(shape, 0.25, dtype=dtype) + (0.25j if dtype is complex else 0.0)
    return out


@pytest.mark.parametrize("name", list(CONTAINERS))
def test_wrong_length_rejected(name):
    shape, build, fields = CONTAINERS[name]
    for field in fields:
        arrays = inputs(shape, fields)
        arrays[field] = arrays[field][..., :-1]
        with pytest.raises(ValueError):
            build(arrays)


@pytest.mark.parametrize("name", list(CONTAINERS))
def test_stored_arrays_are_read_only(name):
    shape, build, fields = CONTAINERS[name]
    obj = build(inputs(shape, fields))
    for field in fields:
        stored = getattr(obj, field)
        assert stored.shape == shape
        assert not stored.flags.writeable, field
        with pytest.raises(ValueError):
            stored[0] = stored[1]


@pytest.mark.parametrize("name", list(CONTAINERS))
def test_stored_arrays_are_private_copies(name):
    shape, build, fields = CONTAINERS[name]
    arrays = inputs(shape, fields)
    obj = build(arrays)
    before = {field: getattr(obj, field).copy() for field in fields}
    for field, arr in arrays.items():
        arr[0] = 1 - arr[0]
    for field in fields:
        np.testing.assert_array_equal(getattr(obj, field), before[field], err_msg=field)


# a dtype of the same kind that is not the field's own
OTHER_DTYPE = {complex: np.complex64, float: np.float32}


def locked(arrays: dict) -> dict:
    for arr in arrays.values():
        arr.flags.writeable = False
    return arrays


@pytest.mark.parametrize("name", list(CONTAINERS))
def test_a_locked_array_that_owns_its_data_is_kept(name):
    shape, build, fields = CONTAINERS[name]
    arrays = locked(inputs(shape, fields))
    obj = build(arrays)
    for field, arr in arrays.items():
        assert getattr(obj, field) is arr, field


@pytest.mark.parametrize("name", list(CONTAINERS))
@pytest.mark.parametrize("kind", ["writeable", "read-only view", "other dtype"])
def test_any_other_array_is_copied(name, kind):
    shape, build, fields = CONTAINERS[name]
    arrays = inputs(shape, fields)
    if kind == "read-only view":
        arrays = locked(
            {field: np.concatenate([arr, arr], axis=-1)[..., : shape[-1]] for field, arr in arrays.items()}
        )
    elif kind == "other dtype":
        arrays = locked({field: arr.astype(OTHER_DTYPE[fields[field]]) for field, arr in arrays.items()})
    obj = build(arrays)
    for field, arr in arrays.items():
        stored = getattr(obj, field)
        assert stored is not arr and not np.shares_memory(stored, arr), field
        assert stored.dtype == fields[field] and not stored.flags.writeable, field
        np.testing.assert_array_equal(stored, arr, err_msg=field)


# the containers of per-bin arrays, which also hold R repetitions as (R, n) rows
PER_BIN = [name for name in CONTAINERS if name != "BandTable"]


def rows(shape: tuple, fields: dict, r: int = 3) -> dict:
    """``inputs`` with an axis of ``r`` rows before the last, each row different."""
    return {
        name: np.arange(1, r + 1)[:, np.newaxis] * arr[..., np.newaxis, :]
        for name, arr in inputs(shape, fields).items()
    }


@pytest.mark.parametrize("name", PER_BIN)
@pytest.mark.parametrize("r", [1, 3])
def test_rows_are_read_only_private_copies(name, r):
    shape, build, fields = CONTAINERS[name]
    arrays = rows(shape, fields, r)
    obj = build(arrays)
    for field, arr in arrays.items():
        stored = getattr(obj, field)
        assert stored.shape == (*shape[:-1], r, shape[-1]) and stored.dtype == fields[field], field
        assert not stored.flags.writeable and not np.shares_memory(stored, arr), field
        np.testing.assert_array_equal(stored, arr, err_msg=field)
        with pytest.raises(ValueError):
            stored[..., 0] = stored[..., 1]


@pytest.mark.parametrize("name", PER_BIN)
def test_locked_rows_that_own_their_data_are_kept(name):
    shape, build, fields = CONTAINERS[name]
    arrays = locked(rows(shape, fields))
    obj = build(arrays)
    for field, arr in arrays.items():
        assert getattr(obj, field) is arr, field


@pytest.mark.parametrize("name", PER_BIN)
@pytest.mark.parametrize(
    "shape", [(3, 4), (5, 3), (0, 5), (1, 1, 5), (2, 3, 5), ()], ids=["short", "transposed", "no-row", "3-D", "3-D", "0-D"]
)
def test_rows_need_one_entry_per_bin_on_the_last_axis_and_at_most_two_axes(name, shape):
    # the axes of one measurement's array after its leading ones: MicSpectra leads with the 4 mics
    measurement, build, fields = CONTAINERS[name]
    assert measurement[-1] == 5
    for field in fields:
        arrays = rows(measurement, fields)
        arrays[field] = np.full(measurement[:-1] + shape, arrays[field].flat[0])
        with pytest.raises(ValueError, match="must have shape"):
            build(arrays)


@pytest.mark.parametrize("name", [name for name in PER_BIN if len(CONTAINERS[name][2]) > 1])
def test_fields_with_different_rows_are_rejected(name):
    shape, build, fields = CONTAINERS[name]
    for field in fields:
        for other in (rows(shape, fields, 2)[field], inputs(shape, fields)[field]):  # 2 rows among 3, 1-D among rows
            arrays = rows(shape, fields)
            arrays[field] = other
            with pytest.raises(ValueError, match="must have shape"):
                build(arrays)
        arrays = inputs(shape, fields)
        arrays[field] = arrays[field][np.newaxis]  # one row among 1-D fields
        with pytest.raises(ValueError, match="must have shape"):
            build(arrays)


def test_band_tables_hold_one_row_only():
    shape, build, fields = CONTAINERS["BandTable"]
    with pytest.raises(ValueError, match="must have shape"):
        build(rows(shape, fields, 1))


LAYERS = {
    "limp-mass": LayerModel.limp_mass(1.135),
    "air-gap": LayerModel.air_gap(0.05),
    "identity": LayerModel.identity(),
    "matrix": LayerModel.explicit(0.9 + 0.1j, 200.0 + 30.0j, 0.0005 + 0.0001j, 0.9 + 0.1j, thickness=0.02),
}
GRID_1HZ = FrequencyGrid.from_range(100.0, 2000.0, 1.0)


@pytest.fixture
def copies(monkeypatch):
    """Arrays ``core.locked_array`` copies while the test runs, through any module's binding of it."""
    made = []
    keep_or_copy = core.locked_array

    def counting(values, *args):
        stored = keep_or_copy(values, *args)
        if stored is not values:
            made.append(args[-1])
        return stored

    for module in (core, transfer, bands):
        if getattr(module, "locked_array", None) is keep_or_copy:
            monkeypatch.setattr(module, "locked_array", counting)
    return made


@pytest.mark.parametrize("kind", list(LAYERS))
def test_layer_matrices_products_and_indicators_copy_nothing(copies, kind):
    layer = LAYERS[kind]
    matrix = layer.matrix_on(GRID_1HZ, AIR)
    product = matrix @ LAYERS["limp-mass"].matrix_on(GRID_1HZ, AIR)
    for thickness in (0.0, layer.thickness, 0.02):
        acoustic_indicators(product, thickness, AIR)
    assert copies == []


def test_decomposition_and_reconstruction_copy_nothing_they_computed(copies):
    spectra = four_mic_spectra(GRID_1HZ, GEOMETRY, 1.0, 0.3, 0.6, 0.05)
    copies.clear()  # the spectra are built from writeable arrays, so they hold copies
    amplitudes = decompose_four_mic(spectra, GEOMETRY, AIR)
    reconstruct_one_load(GRID_1HZ, *boundary_states(amplitudes, GEOMETRY.sample_thickness, AIR))
    assert copies == []


def held_arrays(obj, path: str):
    """``(path, array)`` for every ndarray ``obj`` holds, through its attributes and theirs."""
    if isinstance(obj, np.ndarray):
        yield path, obj
        return
    names = [*getattr(obj, "__dict__", ()), *getattr(type(obj), "__slots__", ())]
    for name in names:
        yield from held_arrays(getattr(obj, name), f"{path}.{name}")


@pytest.mark.parametrize("rows", [None, 3], ids=["one", "rows"])
def test_every_array_of_an_analysis_is_read_only(rows):
    spectra = noisy_spectra(GRID, 1)
    if rows:
        spectra = stacked([noisy_spectra(GRID, seed) for seed in range(rows)])
    analysis = analyze_four_mic(spectra, GEOMETRY, AIR)
    held = dict(held_arrays(analysis, "analysis"))
    assert {"analysis.stl_direct_db", "analysis.worst_quality", "analysis.indicators.stl_db"} <= set(held)
    assert [path for path, arr in held.items() if arr.flags.writeable] == []
