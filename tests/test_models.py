import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tubeloss import (
    AirProperties,
    FrequencyGrid,
    LayerModel,
    acoustic_indicators,
    band_average,
    cascade,
    mass_law_constant_db,
    mass_law_stl,
    stack_indicators,
    stack_thickness,
    stl,
    third_octave_bands,
)
from tubeloss.bands import _band_averager
from tubeloss.models import _layer_pass

from helpers import AIR, AIRS, MATERIALS, POSITIVE_FLOATS, WIDE_GRID, determinant, limp_mass_stl_oracle

DOUBLING_DB = 20.0 * math.log10(2.0)  # 6.0206


def _edge(layer: LayerModel, air: AirProperties = AIR):
    name = f"{layer.kind} {layer.surface_density or layer.thickness!r}"
    return pytest.param(layer, air, id=name if air is AIR else f"{name} under rho0 c {air.impedance!r}")


class TestMassLaw:
    def test_pure_pvc_at_1000(self):
        oracle = 20.0 * math.log10(1000.0 * 1.216) - 48.0
        got = mass_law_stl(1000.0, 1.216)
        assert got == pytest.approx(oracle, rel=1e-15)
        assert got == pytest.approx(13.70, abs=0.01)

    def test_coated_fabric_at_1000(self):
        got = mass_law_stl(1000.0, 1.135)
        assert got == pytest.approx(20.0 * math.log10(1135.0) - 48.0, rel=1e-15)
        assert got == pytest.approx(13.10, abs=0.01)

    def test_below_validity_returned_as_is(self):
        got = mass_law_stl(1000.0, 0.213)
        assert got == pytest.approx(-1.43, abs=0.01)

    @settings(max_examples=50, deadline=None)
    @given(
        f=st.floats(min_value=20.0, max_value=2e4),
        m=st.floats(min_value=0.01, max_value=50.0),
    )
    def test_doubling_adds_six_db(self, f, m):
        base = mass_law_stl(f, m)
        assert mass_law_stl(2 * f, m) - base == pytest.approx(DOUBLING_DB, abs=1e-9)
        assert mass_law_stl(f, 2 * m) - base == pytest.approx(DOUBLING_DB, abs=1e-9)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            mass_law_stl(0.0, 1.0)
        with pytest.raises(ValueError):
            mass_law_stl(1000.0, -1.0)

    def test_an_overflowing_product_is_named_without_a_numpy_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^f \* m_s overflows$"):
                mass_law_stl(np.array([100.0, 1000.0]), 1e308)

    def test_constants_differ_by_fixed_offset(self):
        f = np.array([200.0, 630.0, 1600.0])
        offset = mass_law_stl(f, 0.9, "normal", AIR) - mass_law_stl(f, 0.9, "paper", AIR)
        expected = mass_law_constant_db("normal", AIR) - (-48.0)
        assert np.allclose(offset, expected, atol=1e-12)

    def test_normal_constant_value(self):
        # 20 log10(pi / rho c), about -42.4 dB for default air
        assert mass_law_constant_db("normal", AIR) == pytest.approx(
            20.0 * math.log10(math.pi / AIR.impedance), rel=1e-15
        )
        assert mass_law_constant_db("normal", AIR) == pytest.approx(-42.38, abs=0.01)

    def test_unknown_constant_rejected(self):
        with pytest.raises(ValueError):
            mass_law_constant_db("diffuse")

    def test_limp_layer_beats_field_incidence_rule(self):
        # exact normal-incidence loss of every cataloged material stays above
        # the field-incidence prediction wherever the latter is positive
        grid = np.geomspace(50.0, 5000.0, 200)
        for _, _, m_s in MATERIALS:
            exact = limp_mass_stl_oracle(grid, m_s)
            rule = mass_law_stl(grid, m_s, "paper")
            positive = rule > 0.0
            assert np.all(exact[positive] > rule[positive])


class TestLayerMatrices:
    def test_limp_mass_massless_limit(self):
        grid = FrequencyGrid([1000.0])
        matrix = LayerModel.limp_mass(0.0).matrix_on(grid, AIR)
        assert matrix.t12[0] == 0.0
        assert matrix.t11[0] == 1.0

    def test_limp_mass_determinant(self):
        grid = FrequencyGrid.from_range(100.0, 4000.0, 100.0)
        matrix = LayerModel.limp_mass(1.216).matrix_on(grid, AIR)
        assert np.all(np.abs(determinant(matrix) - 1.0) < 1e-15)

    def test_limp_mass_stl_closed_form(self):
        grid = FrequencyGrid([1000.0])
        matrix = LayerModel.limp_mass(1.135).matrix_on(grid, AIR)
        loss = stl(acoustic_indicators(matrix, 0.0, AIR).transmission)
        assert loss[0] == pytest.approx(float(limp_mass_stl_oracle(1000.0, 1.135)), abs=1e-9)
        assert loss[0] == pytest.approx(18.78, abs=0.01)

    def test_air_gap_zero_thickness(self):
        grid = FrequencyGrid([750.0])
        matrix = LayerModel.air_gap(0.0).matrix_on(grid, AIR)
        assert matrix.t11[0] == 1.0
        assert matrix.t12[0] == 0.0

    def test_air_gap_determinant(self):
        grid = FrequencyGrid.from_range(100.0, 4000.0, 37.0)
        matrix = LayerModel.air_gap(0.123).matrix_on(grid, AIR)
        assert np.all(np.abs(determinant(matrix) - 1.0) < 1e-12)

    def test_half_wave_gap(self):
        # kL = pi flips both diagonal signs and stays transparent
        L = 0.1
        f = AIR.sound_speed / (2.0 * L)
        grid = FrequencyGrid([f])
        matrix = LayerModel.air_gap(L).matrix_on(grid, AIR)
        assert matrix.t11[0].real == pytest.approx(-1.0, abs=1e-12)
        assert abs(matrix.t12[0]) <= 1e-9
        assert abs(matrix.t21[0]) <= 1e-12
        t = acoustic_indicators(matrix, L, AIR).transmission
        assert abs(t[0]) == pytest.approx(1.0, abs=1e-12)


class TestCascade:
    def test_identity_pair(self):
        grid = FrequencyGrid([500.0])
        matrix = cascade([LayerModel.identity(), LayerModel.identity()], grid, AIR)
        assert matrix.t11[0] == 1.0
        assert matrix.t12[0] == 0.0

    def test_zero_gap_masses_merge(self):
        grid = FrequencyGrid.from_range(100.0, 2000.0, 100.0)
        m1, m2 = 0.224, 1.216
        stacked = cascade([LayerModel.limp_mass(m1), LayerModel.limp_mass(m2)], grid, AIR)
        merged = LayerModel.limp_mass(m1 + m2).matrix_on(grid, AIR)
        assert np.all(np.abs(stacked.t12 - merged.t12) <= 1e-12 * np.abs(merged.t12))
        stl_stacked = stl(acoustic_indicators(stacked, 0.0, AIR).transmission)
        stl_merged = stl(acoustic_indicators(merged, 0.0, AIR).transmission)
        assert np.all(np.abs(stl_stacked - stl_merged) < 1e-9)

    def test_associativity(self):
        grid = FrequencyGrid.from_range(100.0, 1600.0, 300.0)
        a = LayerModel.limp_mass(0.224)
        b = LayerModel.air_gap(0.005)
        c = LayerModel.limp_mass(1.216)
        left = cascade([a, b], grid, AIR) @ c.matrix_on(grid, AIR)
        right = a.matrix_on(grid, AIR) @ cascade([b, c], grid, AIR)
        for field in ("t11", "t12", "t21", "t22"):
            lhs, rhs = getattr(left, field), getattr(right, field)
            assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.maximum(np.abs(rhs), 1.0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cascade([], FrequencyGrid([100.0]), AIR)

    def test_stack_improves_on_light_layer(self):
        grid = FrequencyGrid([1000.0])
        layers = [LayerModel.limp_mass(0.224), LayerModel.air_gap(0.005), LayerModel.limp_mass(1.216)]
        bands = third_octave_bands(1000.0, 1000.0)
        stack, _ = stack_indicators(layers, grid, AIR, bands=bands)
        single, _ = stack_indicators([LayerModel.limp_mass(0.224)], grid, AIR, bands=bands)
        assert stack.stl_db[0] > single.stl_db[0]
        # also clears the summed-mass rule of thumb minus 6 dB
        assert stack.stl_db[0] > mass_law_stl(1000.0, 0.224 + 1.216) - 6.0

    def test_stack_thickness_sums_gaps(self):
        layers = [LayerModel.limp_mass(0.2), LayerModel.air_gap(0.005), LayerModel.limp_mass(1.0)]
        assert stack_thickness(layers) == pytest.approx(0.005)


class TestStackIndicators:
    # a matrix with thickness, an identity, a mass that is opaque (+inf) up to 286 Hz and whose
    # t12 overflows (NaN) above, an air gap
    LAYERS = (
        LayerModel.explicit(0.9 + 0.1j, 200.0 + 30.0j, 0.0005 + 0.0001j, 0.9 + 0.1j, thickness=0.02),
        LayerModel.identity(),
        LayerModel.limp_mass(1e305),
        LayerModel.air_gap(0.05),
    )

    BANDS = third_octave_bands(100.0, 16000.0)

    def test_stack_has_the_bits_of_the_cascade(self):
        stack, _ = stack_indicators(self.LAYERS, WIDE_GRID, AIR, bands=self.BANDS)
        want = acoustic_indicators(cascade(self.LAYERS, WIDE_GRID, AIR), stack_thickness(self.LAYERS), AIR)
        for field in ("transmission", "reflection", "stl_db"):
            assert getattr(stack, field).tobytes() == getattr(want, field).tobytes(), field
        assert np.isnan(stack.stl_db).any() and np.isinf(stack.stl_db).any()

    @pytest.mark.parametrize("mode", ["power", "db"])
    def test_each_table_is_that_layer_alone(self, mode):
        _, tables = stack_indicators(self.LAYERS, WIDE_GRID, AIR, bands=self.BANDS, mode=mode)
        assert len(tables) == len(self.LAYERS)
        for table, layer in zip(tables, self.LAYERS):
            alone = acoustic_indicators(layer.matrix_on(WIDE_GRID, AIR), layer.thickness, AIR)
            want = band_average(WIDE_GRID, alone.stl_db, self.BANDS, mode=mode)
            assert table.bands == want.bands, layer
            assert table.values.tobytes() == want.values.tobytes(), layer
            assert table.coverage.tobytes() == want.coverage.tobytes(), layer
        # the opaque mass: +inf bands below the overflow of its t12, NaN (no valid bin) above
        assert np.isinf(tables[2].values).any() and np.isnan(tables[2].values).any()

    def test_tables_are_read_only(self):
        grid = FrequencyGrid([100.0, 200.0])
        _, tables = stack_indicators(self.LAYERS, grid, AIR, bands=third_octave_bands(100.0, 200.0))
        for table in tables:
            for array in (table.values, table.coverage):
                with pytest.raises(ValueError):
                    array[0] = 0.0

    def test_memory_does_not_grow_with_layers_times_bins(self):
        grid = FrequencyGrid.from_range(100.0, 5000.0, 1.0)  # 4 901 bins, as in the stack-deep benchmark
        bands = third_octave_bands(100.0, 5000.0)

        def peak_bytes(n_layers):
            layers = [LayerModel.limp_mass(0.6), LayerModel.air_gap(0.05)] * (n_layers // 2)
            tracemalloc.start()
            try:
                stack_indicators(layers, grid, AIR, bands=bands)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # an (L, n) array of layer losses would add 190 x 4 901 x 8 bytes = 7.1 MiB
        assert peak_bytes(200) - peak_bytes(10) < 0.5 * 1024**2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stack_indicators([], FrequencyGrid([100.0]), AIR, bands=third_octave_bands(100.0, 100.0))

    # The parameter path of limp masses and air gaps against the general one. The stack's
    # curves and every table are compared bit for bit (as int64 views, so a NaN or a zero of the
    # other sign counts). The running product is compared by value where the general one is
    # finite: a limp mass enters it in 2 products instead of @'s 8, which add terms 0 * x, so
    # a zero can take the other sign (in 9 of the 40 drawn stacks when this was written) and an
    # infinite entry is not made NaN by 0 * inf; the stack's curves keep their bits either way.
    GRIDS = {f"{step} Hz": FrequencyGrid.from_range(100.0, 5000.0, step) for step in (1.0, 0.37)}

    @staticmethod
    def assert_general_path_bits(layers, grid, air, mode):
        bands = third_octave_bands(100.0, 5000.0)
        average = _band_averager(grid, bands, mode)
        stack, tables = stack_indicators(layers, grid, air, bands=bands, mode=mode)
        product, _ = _layer_pass(layers, grid, air, average)
        # the general path: each layer's acoustic_indicators of its matrix_on, cascade's products
        want_tables = [
            average(acoustic_indicators(layer.matrix_on(grid, air), layer.thickness, air).stl_db) for layer in layers
        ]
        want_product = cascade(layers, grid, air)
        want = acoustic_indicators(want_product, stack_thickness(layers), air)

        def bits(values):
            return np.ascontiguousarray(values).view(np.int64)

        for field in ("stl_db", "transmission", "reflection"):
            assert np.array_equal(bits(getattr(stack, field)), bits(getattr(want, field))), field
        assert len(tables) == len(want_tables)
        for layer, table, want_table in zip(layers, tables, want_tables):
            assert table.bands == want_table.bands
            assert np.array_equal(bits(table.values), bits(want_table.values)), layer
            assert np.array_equal(bits(table.coverage), bits(want_table.coverage)), layer
        finite = want_product.valid
        assert np.array_equal(product.valid, finite)
        for entry in ("t11", "t12", "t21", "t22"):
            got, expected = getattr(product, entry), getattr(want_product, entry)
            assert np.array_equal(got[finite], expected[finite]), entry

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        layers=st.lists(
            st.one_of(
                st.floats(0.0, 1e4).map(LayerModel.limp_mass),
                st.floats(0.0, 10.0).map(LayerModel.air_gap),
            ),
            min_size=1,
            max_size=6,
        ),
        grid=st.sampled_from(sorted(GRIDS)),
        air=AIRS,
        mode=st.sampled_from(["power", "db"]),
    )
    def test_drawn_masses_and_gaps_keep_the_general_paths_bits(self, layers, grid, air, mode):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            self.assert_general_path_bits(layers, self.GRIDS[grid], air, mode)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        layer=st.one_of(
            st.floats(0.0, 1.7976931348623157e308).map(LayerModel.limp_mass),
            st.one_of(st.just(0.0), POSITIVE_FLOATS).map(LayerModel.air_gap),
        ),
        grid=st.sampled_from(sorted(GRIDS)),
        air=AIRS,
    )
    def test_each_layers_own_loss_has_the_general_paths_bits_at_every_bin(self, layer, grid, air):
        # the parameter path drops a bin, from that bin's values alone, exactly where the general path does
        grid = self.GRIDS[grid]
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            loss, _ = layer._loss_and_factor(grid, air, 2.0 * math.pi * grid.frequencies, grid.wavenumbers(air))
            want = acoustic_indicators(layer.matrix_on(grid, air), layer.thickness, air).stl_db
        assert np.array_equal(loss.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("mode", ["power", "db"])
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize(
        "edge, air",
        [
            *(_edge(LayerModel.limp_mass(m)) for m in (0.0, 1e-300, 1e300, 1e305, 1e307)),
            *(_edge(LayerModel.air_gap(L)) for L in (0.0, 5e-324, 1e300, 1e308)),
            _edge(LayerModel.limp_mass(1e302), AirProperties(1e-3, 1.0)),
            _edge(LayerModel.limp_mass(1.5450034423087953e301), AirProperties(0.0027, 1.0)),
            _edge(LayerModel.limp_mass(5.1500114743626504e300), AirProperties(0.0009000000000000001, 1.0)),
            *(
                _edge(LayerModel.air_gap(0.05), AirProperties(z, 1.0))
                for z in (2.0**-1024 + 5e-324, 1.7976931348623157e308)
            ),
            _edge(LayerModel.air_gap(0.05), AirProperties(1e20, 1e-320)),
        ],
    )
    def test_edge_layers_keep_the_general_paths_bits(self, edge, air, grid, mode):
        # omega m_s overflows above 286 Hz at 1e305 and everywhere at 1e307, and k L overflows at 1e308:
        # those bins drop; at 1e300 the gap's phase has a huge finite argument. Under rho0 c = 1e-3,
        # omega m_s / rho0 c overflows above 286 Hz at 1e302 while omega m_s stays finite; at 5000 Hz on
        # the 1 Hz grid, omega m_s / rho0 c overflows and omega m_s (1 / rho0 c) does not under 0.0027,
        # and the other way round under 9e-4: either drops the bin. The gaps sit under the least and
        # the greatest rho0 c accepted, and under a sound speed of 1e-320 m/s, where k overflows.
        layers = (edge, LayerModel.air_gap(0.05), edge, LayerModel.limp_mass(0.6))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            self.assert_general_path_bits((edge,), self.GRIDS[grid], air, mode)
            self.assert_general_path_bits(layers, self.GRIDS[grid], air, mode)

    # Each bin's bits depend on that bin alone, so a stack on a subset of a grid has the grid's bits
    # at the shared bins. The 40 001 bins' complex arrays pass 256 KiB, where numpy computes an
    # operator's result in place into a temporary; the 4 901 are the stack-deep benchmark's grid.
    SUBSET_GRIDS = {
        f"{len(grid)} bins": grid for grid in (GRIDS["1.0 Hz"], FrequencyGrid.from_range(100.0, 5100.0, 0.125))
    }
    ENTRIES = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        layers=st.lists(
            st.one_of(
                st.floats(0.0, 1e4).map(LayerModel.limp_mass),
                st.floats(0.0, 10.0).map(LayerModel.air_gap),
                st.just(LayerModel.identity()),
                st.builds(LayerModel.explicit, ENTRIES, ENTRIES, ENTRIES, ENTRIES, thickness=st.floats(0.0, 1.0)),
                st.sampled_from([LayerModel.limp_mass(m) for m in (1e305, 1e307)])
                | st.sampled_from([LayerModel.air_gap(L) for L in (0.0, 1e300)]),
            ),
            min_size=1,
            max_size=5,
        ),
        grid=st.sampled_from(sorted(SUBSET_GRIDS)),
        air=AIRS,
    )
    def test_a_stack_on_a_subset_of_the_grid_has_the_grids_bits(self, layers, grid, air):
        grid, bands = self.SUBSET_GRIDS[grid], third_octave_bands(100.0, 5000.0)
        whole, _ = stack_indicators(layers, grid, air, bands=bands)
        for bins in (slice(None, None, 7), slice(None, len(grid) // 3)):
            part, _ = stack_indicators(layers, FrequencyGrid(grid.frequencies[bins]), air, bands=bands)
            for field in ("stl_db", "transmission", "reflection"):
                want = np.ascontiguousarray(getattr(whole, field)[bins])
                assert np.array_equal(getattr(part, field).view(np.int64), want.view(np.int64)), (field, bins)

    def test_unknown_band_mode_rejected(self):
        with pytest.raises(ValueError, match="^unknown band averaging mode 'linear'$"):
            stack_indicators(self.LAYERS, FrequencyGrid([100.0]), AIR, bands=self.BANDS, mode="linear")


class TestLayerModel:
    @pytest.mark.parametrize("value", [math.nan, math.inf, float("1e400")], ids=["nan", "inf", "1e400"])
    @pytest.mark.parametrize(
        "make, name",
        [
            (LayerModel.limp_mass, "surface_density"),
            (LayerModel.air_gap, "thickness"),
            (lambda v: LayerModel.explicit(1.0, 0.0, 0.0, 1.0, thickness=v), "thickness"),
            (lambda v: LayerModel.explicit(1.0, complex(0.0, v), 0.0, 1.0), "t12"),
            (lambda v: LayerModel.explicit(v, 0.0, 0.0, 1.0), "t11"),
        ],
        ids=["limp-mass", "air-gap", "matrix-thickness", "matrix-t12", "matrix-t11"],
    )
    def test_non_finite_parameters_rejected(self, make, name, value):
        with pytest.raises(ValueError, match=f"^layer {name} must be finite$"):
            make(value)

    @pytest.mark.parametrize("value", [-1.0, -math.inf], ids=["negative", "-inf"])
    def test_negative_parameters_keep_their_messages(self, value):
        with pytest.raises(ValueError, match="^limp-mass layer needs a non-negative surface_density$"):
            LayerModel.limp_mass(value)
        with pytest.raises(ValueError, match="^air-gap layer needs a non-negative thickness$"):
            LayerModel.air_gap(value)
        with pytest.raises(ValueError, match="^matrix layer needs a non-negative thickness$"):
            LayerModel.explicit(1.0, 0.0, 0.0, 1.0, thickness=value)

    def test_validation(self):
        with pytest.raises(ValueError):
            LayerModel(kind="limp-mass")
        with pytest.raises(ValueError):
            LayerModel(kind="air-gap", thickness=-0.001)
        with pytest.raises(ValueError):
            LayerModel(kind="bogus")

    @pytest.mark.parametrize("thickness", [0.001, -0.001, math.nan, math.inf])
    @pytest.mark.parametrize("kind", ["limp-mass", "identity"])
    def test_only_gaps_and_matrices_take_a_thickness(self, kind, thickness):
        # neither file format can give these kinds a thickness, and describe() would leave it out
        with pytest.raises(ValueError, match=f"^{kind} layer takes no thickness$"):
            LayerModel(kind=kind, surface_density=1.0, thickness=thickness)

    @pytest.mark.parametrize(
        "kind, parameters, message",
        [
            ("air-gap", {"thickness": 0.01, "surface_density": 5.0}, "air-gap layer takes no surface_density"),
            ("air-gap", {"thickness": 0.01, "surface_density": 0.0}, "air-gap layer takes no surface_density"),
            ("identity", {"surface_density": 3.0}, "identity layer takes no surface_density"),
            ("matrix", {"matrix": (1, 0, 0, 1), "surface_density": 1.0}, "matrix layer takes no surface_density"),
            ("limp-mass", {"surface_density": 1.0, "matrix": (1, 0, 0, 1)}, "limp-mass layer takes no matrix"),
            ("air-gap", {"thickness": 0.01, "matrix": (1, 0, 0, 1)}, "air-gap layer takes no matrix"),
            ("identity", {"matrix": (1, 0, 0, 1), "passive_symmetric": True}, "identity layer takes no matrix"),
            ("identity", {"passive_symmetric": True}, "identity layer takes no passive_symmetric"),
            ("limp-mass", {"surface_density": 1.0, "passive_symmetric": True},
             "limp-mass layer takes no passive_symmetric"),
            ("identity", {"surface_density": 3.0, "passive_symmetric": True},
             "identity layer takes no surface_density"),
        ],
    )
    def test_a_layer_takes_only_the_parameters_its_kind_uses(self, kind, parameters, message):
        # describe() and the report would leave such a parameter out, while == and repr count it
        with pytest.raises(ValueError, match=f"^{message}$"):
            LayerModel(kind=kind, **parameters)

    def test_explicit_passive_symmetric_checked(self):
        LayerModel.explicit(1.0, 100j, 0.0, 1.0, passive_symmetric=True)
        with pytest.raises(ValueError):
            LayerModel.explicit(1.0, 100j, 0.0, 1.1, passive_symmetric=True)
        with pytest.raises(ValueError):
            LayerModel.explicit(2.0, 100j, 0.0, 2.0, passive_symmetric=True)  # det = 4

    def test_explicit_matrix_on_grid(self):
        grid = FrequencyGrid([100.0, 200.0])
        layer = LayerModel.explicit(1.0, 50j, 0.0, 1.0)
        matrix = layer.matrix_on(grid, AIR)
        assert np.all(matrix.t12 == 50j)

    def test_identity_round_trip_through_indicators(self):
        grid = FrequencyGrid.from_range(100.0, 2000.0, 500.0)
        ind = acoustic_indicators(LayerModel.identity().matrix_on(grid, AIR), 0.0, AIR)
        assert np.allclose(ind.stl_db, 0.0, atol=1e-12)
