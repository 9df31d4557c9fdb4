import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tubeloss import (
    FrequencyGrid,
    LayerModel,
    acoustic_indicators,
    air_gap_matrix,
    cascade,
    identity_matrix,
    limp_mass_matrix,
    mass_law_constant_db,
    mass_law_stl,
    stack_indicators,
    stack_thickness,
    stl,
)

from helpers import AIR, MATERIALS, limp_mass_stl_oracle

DOUBLING_DB = 20.0 * math.log10(2.0)  # 6.0206


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
        matrix = limp_mass_matrix(grid, 0.0)
        assert matrix.t12[0] == 0.0
        assert matrix.t11[0] == 1.0

    def test_limp_mass_determinant(self):
        grid = FrequencyGrid.from_range(100.0, 4000.0, 100.0)
        matrix = limp_mass_matrix(grid, 1.216)
        assert np.all(np.abs(matrix.determinant() - 1.0) < 1e-15)

    def test_limp_mass_stl_closed_form(self):
        grid = FrequencyGrid([1000.0])
        matrix = limp_mass_matrix(grid, 1.135)
        loss = stl(acoustic_indicators(matrix, 0.0, AIR).transmission)
        assert loss[0] == pytest.approx(float(limp_mass_stl_oracle(1000.0, 1.135)), abs=1e-9)
        assert loss[0] == pytest.approx(18.78, abs=0.01)

    def test_air_gap_zero_thickness(self):
        grid = FrequencyGrid([750.0])
        matrix = air_gap_matrix(grid, 0.0, AIR)
        assert matrix.t11[0] == 1.0
        assert matrix.t12[0] == 0.0

    def test_air_gap_determinant(self):
        grid = FrequencyGrid.from_range(100.0, 4000.0, 37.0)
        matrix = air_gap_matrix(grid, 0.123, AIR)
        assert np.all(np.abs(matrix.determinant() - 1.0) < 1e-12)

    def test_half_wave_gap(self):
        # kL = pi flips both diagonal signs and stays transparent
        L = 0.1
        f = AIR.sound_speed / (2.0 * L)
        grid = FrequencyGrid([f])
        matrix = air_gap_matrix(grid, L, AIR)
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
        merged = limp_mass_matrix(grid, m1 + m2)
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
        stack = stack_indicators(layers, grid, AIR)
        single = stack_indicators([LayerModel.limp_mass(0.224)], grid, AIR)
        assert stack.stl_db[0] > single.stl_db[0]
        # also clears the summed-mass rule of thumb minus 6 dB
        assert stack.stl_db[0] > mass_law_stl(1000.0, 0.224 + 1.216) - 6.0

    def test_stack_thickness_sums_gaps(self):
        layers = [LayerModel.limp_mass(0.2), LayerModel.air_gap(0.005), LayerModel.limp_mass(1.0)]
        assert stack_thickness(layers) == pytest.approx(0.005)


class TestLayerModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            LayerModel(kind="limp-mass")
        with pytest.raises(ValueError):
            LayerModel(kind="air-gap", thickness=-0.001)
        with pytest.raises(ValueError):
            LayerModel(kind="bogus")

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
        ind = acoustic_indicators(identity_matrix(grid), 0.0, AIR)
        assert np.allclose(ind.stl_db, 0.0, atol=1e-12)
