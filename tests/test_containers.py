"""Contract shared by the per-frequency containers: shape-checked, private, read-only arrays."""
import numpy as np
import pytest

from tubeloss import (
    AcousticIndicators,
    BandTable,
    ComplexSpectrum,
    FrequencyGrid,
    LayerModel,
    PlaneWaveAmplitudes,
    TransferMatrix,
    acoustic_indicators,
    boundary_states,
    decompose_four_mic,
    reconstruct_one_load,
    third_octave_bands,
)
from tubeloss import core

from helpers import AIR, GEOMETRY, four_mic_spectra

GRID = FrequencyGrid.from_range(100.0, 500.0, 100.0)
BANDS = third_octave_bands(100.0, 500.0)

# name -> (entries per array, constructor from the array dict, {array field: dtype})
CONTAINERS = {
    "PlaneWaveAmplitudes": (
        len(GRID),
        lambda arrays: PlaneWaveAmplitudes(GRID, **arrays),
        {"a": complex, "b": complex, "c": complex, "d": complex},
    ),
    "TransferMatrix": (
        len(GRID),
        lambda arrays: TransferMatrix(GRID, **arrays),
        {"t11": complex, "t12": complex, "t21": complex, "t22": complex},
    ),
    "AcousticIndicators": (
        len(GRID),
        lambda arrays: AcousticIndicators(GRID, **arrays),
        {"transmission": complex, "reflection": complex, "stl_db": float},
    ),
    "ComplexSpectrum": (
        len(GRID),
        lambda arrays: ComplexSpectrum(GRID, arrays["values"]),
        {"values": complex},
    ),
    "BandTable": (
        len(BANDS),
        lambda arrays: BandTable(BANDS, arrays["values"], arrays["coverage"]),
        {"values": float, "coverage": float},
    ),
}


def inputs(n: int, fields: dict) -> dict:
    """Finite per-bin arrays of each field's dtype, with entries x where 1 - x != x."""
    out = {}
    for name, dtype in fields.items():
        out[name] = np.full(n, 0.25, dtype=dtype) + (0.25j if dtype is complex else 0.0)
    return out


@pytest.mark.parametrize("name", list(CONTAINERS))
def test_wrong_length_rejected(name):
    n, build, fields = CONTAINERS[name]
    for field in fields:
        arrays = inputs(n, fields)
        arrays[field] = arrays[field][:-1]
        with pytest.raises(ValueError):
            build(arrays)


@pytest.mark.parametrize("name", list(CONTAINERS))
def test_stored_arrays_are_read_only(name):
    n, build, fields = CONTAINERS[name]
    obj = build(inputs(n, fields))
    for field in fields:
        stored = getattr(obj, field)
        assert stored.shape == (n,)
        assert not stored.flags.writeable, field
        with pytest.raises(ValueError):
            stored[0] = stored[1]


@pytest.mark.parametrize("name", list(CONTAINERS))
def test_stored_arrays_are_private_copies(name):
    n, build, fields = CONTAINERS[name]
    arrays = inputs(n, fields)
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
    n, build, fields = CONTAINERS[name]
    arrays = locked(inputs(n, fields))
    obj = build(arrays)
    for field, arr in arrays.items():
        assert getattr(obj, field) is arr, field


@pytest.mark.parametrize("name", list(CONTAINERS))
@pytest.mark.parametrize("kind", ["writeable", "read-only view", "other dtype"])
def test_any_other_array_is_copied(name, kind):
    n, build, fields = CONTAINERS[name]
    arrays = inputs(n, fields)
    if kind == "read-only view":
        arrays = locked({field: np.concatenate([arr, arr])[:n] for field, arr in arrays.items()})
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


def rows(n: int, fields: dict, r: int = 3) -> dict:
    """``inputs`` as ``(r, n)`` arrays, each row different."""
    return {name: np.outer(np.arange(1, r + 1), arr) for name, arr in inputs(n, fields).items()}


@pytest.mark.parametrize("name", PER_BIN)
@pytest.mark.parametrize("r", [1, 3])
def test_rows_are_read_only_private_copies(name, r):
    n, build, fields = CONTAINERS[name]
    arrays = rows(n, fields, r)
    obj = build(arrays)
    for field, arr in arrays.items():
        stored = getattr(obj, field)
        assert stored.shape == (r, n) and stored.dtype == fields[field], field
        assert not stored.flags.writeable and not np.shares_memory(stored, arr), field
        np.testing.assert_array_equal(stored, arr, err_msg=field)
        with pytest.raises(ValueError):
            stored[0, 0] = stored[0, 1]


@pytest.mark.parametrize("name", PER_BIN)
def test_locked_rows_that_own_their_data_are_kept(name):
    n, build, fields = CONTAINERS[name]
    arrays = locked(rows(n, fields))
    obj = build(arrays)
    for field, arr in arrays.items():
        assert getattr(obj, field) is arr, field


@pytest.mark.parametrize("name", PER_BIN)
@pytest.mark.parametrize(
    "shape", [(3, 4), (5, 3), (0, 5), (1, 1, 5), (2, 3, 5), ()], ids=["short", "transposed", "no-row", "3-D", "3-D", "0-D"]
)
def test_rows_need_one_entry_per_bin_on_the_last_axis_and_at_most_two_axes(name, shape):
    n, build, fields = CONTAINERS[name]
    assert n == 5
    for field in fields:
        arrays = rows(n, fields)
        arrays[field] = np.full(shape, arrays[field].flat[0])
        with pytest.raises(ValueError, match="must have shape"):
            build(arrays)


@pytest.mark.parametrize("name", [name for name in PER_BIN if len(CONTAINERS[name][2]) > 1])
def test_fields_with_different_rows_are_rejected(name):
    n, build, fields = CONTAINERS[name]
    for field in fields:
        for other in (rows(n, fields, 2)[field], inputs(n, fields)[field]):  # 2 rows among 3, 1-D among rows
            arrays = rows(n, fields)
            arrays[field] = other
            with pytest.raises(ValueError, match="must have shape"):
                build(arrays)
        arrays = inputs(n, fields)
        arrays[field] = arrays[field][np.newaxis]  # one row among 1-D fields
        with pytest.raises(ValueError, match="must have shape"):
            build(arrays)


def test_band_tables_hold_one_row_only():
    n, build, fields = CONTAINERS["BandTable"]
    with pytest.raises(ValueError, match="must have shape"):
        build(rows(n, fields, 1))


LAYERS = {
    "limp-mass": LayerModel.limp_mass(1.135),
    "air-gap": LayerModel.air_gap(0.05),
    "identity": LayerModel.identity(),
    "matrix": LayerModel.explicit(0.9 + 0.1j, 200.0 + 30.0j, 0.0005 + 0.0001j, 0.9 + 0.1j, thickness=0.02),
}
GRID_1HZ = FrequencyGrid.from_range(100.0, 2000.0, 1.0)


@pytest.fixture
def copies(monkeypatch):
    """Arrays ``core.locked_array`` copies while the test runs."""
    made = []
    keep_or_copy = core.locked_array

    def counting(values, *args):
        stored = keep_or_copy(values, *args)
        if stored is not values:
            made.append(args[-1])
        return stored

    monkeypatch.setattr(core, "locked_array", counting)
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
    amplitudes = decompose_four_mic(*spectra, GEOMETRY, AIR)
    reconstruct_one_load(GRID_1HZ, *boundary_states(amplitudes, GEOMETRY.sample_thickness, AIR))
    assert copies == []
