import numpy as np
import pytest
from hypothesis import given, strategies as st

from dotdiode.constants import HC_EV_NM
from dotdiode.electrostatics import field_lever_arm
from dotdiode.qd_model import (
    ExcitonLine, FssModel, ChargeLadder, LadderRangeError, BackgroundModel,
    ZERO_BACKGROUND, stark_energy, stark_wavelength, tuning_range, fss_at,
    occupancy_at, synth_emission_map, calibrate_stark_line,
    load_reference_lines, load_charge_ladder,
)


@pytest.fixture(scope="module")
def lines():
    return {l.species: l for l in load_reference_lines()}


@pytest.fixture(scope="module")
def ladder():
    return load_charge_ladder()


def test_zero_field_energy_is_e0(lines):
    line = lines["X0"]
    assert stark_energy(line, 0.0) == line.E0_eV


def test_quadratic_form_recovered_from_three_points():
    line = ExcitonLine("X0", E0_eV=0.81, dipole_enm=0.2, polarizability_ueV=-0.4)
    F = np.array([10.0, 40.0, 90.0])
    E = stark_energy(line, F)
    # linear-algebra oracle: exact parabola through three points
    coef = np.polyfit(F, E, 2)
    assert coef[0] == pytest.approx(-0.4e-6, rel=1e-9)
    assert coef[1] == pytest.approx(0.2e-4, rel=1e-9)
    assert coef[2] == pytest.approx(0.81, rel=1e-12)


@given(st.floats(min_value=-150.0, max_value=150.0))
def test_second_difference_constant(F):
    line = ExcitonLine("X0", E0_eV=0.81, dipole_enm=0.2, polarizability_ueV=-0.4)
    # 50 kV/cm steps keep the cancellation noise of the three-term stencil
    # below the 1e-12 relative contract
    h = 50.0
    second = (stark_energy(line, F + h) - 2.0 * stark_energy(line, F)
              + stark_energy(line, F - h))
    assert second == pytest.approx(2.0 * h * h * line.polarizability_ueV * 1e-6,
                                   rel=1e-12)


def test_reference_tuning_ranges(lines):
    assert tuning_range(lines["X0"], 0.59, 1.96, 240.0) == pytest.approx(2.40, abs=0.01)
    assert tuning_range(lines["XX"], 0.59, 1.96, 240.0) == pytest.approx(0.82, abs=0.01)
    assert tuning_range(lines["Xminus"], 0.59, 1.96, 240.0) == pytest.approx(1.73, abs=0.01)


def test_zero_response_line_has_zero_range():
    flat = ExcitonLine("X0", E0_eV=0.81, dipole_enm=0.0, polarizability_ueV=0.0)
    assert tuning_range(flat, 0.59, 1.96, 240.0) == 0.0


def test_interior_vertex_range_matches_dense_scan():
    # vertex inside the window: p = -2 beta F puts it at F = 50 kV/cm (V = 1.2)
    line = ExcitonLine("X0", E0_eV=0.81, dipole_enm=0.4, polarizability_ueV=-0.4)
    span = tuning_range(line, 0.59, 1.96, 240.0)
    volts = np.linspace(0.59, 1.96, 10_000)
    lams = stark_wavelength(line, np.array([field_lever_arm(v, 240.0) for v in volts]))
    dense = float(np.max(lams) - np.min(lams))
    assert span >= dense
    assert span == pytest.approx(dense, abs=1e-6)


def test_calibration_reproduces_anchor_and_range():
    line = calibrate_stark_line("X0", 1530.3, 1.18, 2.40, 0.59, 1.96, 240.0)
    assert stark_wavelength(line, field_lever_arm(1.18, 240.0)) == pytest.approx(1530.3,
                                                                                 abs=1e-9)
    assert tuning_range(line, 0.59, 1.96, 240.0) == pytest.approx(2.40, abs=1e-9)


def test_reference_lines_sit_in_the_c_band(lines):
    for line in lines.values():
        assert 0.7867 <= line.E0_eV <= 0.8165


def test_charged_species_reject_fss_models():
    with pytest.raises(ValueError):
        ExcitonLine("Xminus", E0_eV=0.807, dipole_enm=0.1, polarizability_ueV=-0.2,
                    fss=FssModel(41.0, 45.0, 1.7))


def test_fss_anchor_values(lines):
    model = lines["X0"].fss
    assert fss_at(model, 1.7) == pytest.approx(41.0, abs=1e-9)
    assert fss_at(model, 1.15) == pytest.approx(16.0, abs=1e-9)
    assert fss_at(model, 1.425) == pytest.approx(28.5, abs=1e-9)


def test_fss_clamps_at_floor():
    model = FssModel(delta_ref_ueV=41.0, slope_ueV_per_V=45.0, V_ref=1.7, floor_ueV=3.0)
    assert fss_at(model, -5.0) == 3.0


@given(st.floats(min_value=0.0, max_value=3.0))
def test_fss_never_negative(V):
    model = FssModel(delta_ref_ueV=41.0, slope_ueV_per_V=45.4545, V_ref=1.7)
    assert fss_at(model, V) >= 0.0


def test_region_assignments(ladder):
    assert occupancy_at(ladder, 0.9) == (2, ("X2minus",))
    assert occupancy_at(ladder, 0.97) == (1, ("Xminus",))
    assert occupancy_at(ladder, 1.1) == (1, ("X0", "Xminus"))
    assert occupancy_at(ladder, 1.35) == (0, ("X0",))


def test_edges_belong_to_the_higher_region(ladder):
    assert occupancy_at(ladder, 1.0)[1] == ("X0", "Xminus")
    assert occupancy_at(ladder, 0.945)[1] == ("Xminus",)
    assert occupancy_at(ladder, 1.4)[1] == ("X0",)   # final edge closes last region


def test_out_of_span_raises(ladder):
    with pytest.raises(LadderRangeError):
        occupancy_at(ladder, 0.5)
    with pytest.raises(LadderRangeError):
        occupancy_at(ladder, 1.5)


@given(st.floats(min_value=0.8, max_value=1.4), st.floats(min_value=0.8, max_value=1.4))
def test_occupancy_monotone_non_increasing(ladder_v1, ladder_v2):
    ladder = load_charge_ladder()
    lo, hi = sorted([ladder_v1, ladder_v2])
    assert occupancy_at(ladder, lo)[0] >= occupancy_at(ladder, hi)[0]


def test_ladder_validation():
    with pytest.raises(ValueError):
        ChargeLadder(region_edges=(1.0, 0.5), occupancy=(1,), active_species=(("X0",),))
    with pytest.raises(ValueError):
        ChargeLadder(region_edges=(0.0, 1.0, 2.0), occupancy=(0, 1),
                     active_species=(("X0",), ("X0",)))


def test_single_line_map_argmax_traces_the_parabola(lines):
    line = lines["X0"]
    flat = ChargeLadder(region_edges=(0.5, 2.0), occupancy=(0,),
                        active_species=(("X0",),))
    gate = np.linspace(0.6, 1.9, 30)
    lam = np.linspace(1528.0, 1533.0, 1200)
    emission = synth_emission_map([line], flat, gate, lam, linewidth_ueV=30.0,
                                  background=ZERO_BACKGROUND, seed=None)
    step = lam[1] - lam[0]
    for k, v in enumerate(gate):
        expected = stark_wavelength(line, field_lever_arm(v, 240.0))
        peak = lam[np.argmax(emission.intensity[:, k])]
        assert abs(peak - expected) <= step


def test_map_columns_contain_exactly_the_active_species(lines, ladder):
    gate = np.linspace(0.82, 1.38, 15)
    lam = np.linspace(1528.0, 1540.0, 2400)
    emission = synth_emission_map(list(lines.values()), ladder, gate, lam,
                                  linewidth_ueV=30.0, background=ZERO_BACKGROUND,
                                  seed=None)
    for k, v in enumerate(gate):
        _, active = occupancy_at(ladder, v)
        column = emission.intensity[:, k]
        for species, line in lines.items():
            lam_c = stark_wavelength(line, field_lever_arm(v, 240.0))
            window = np.abs(emission.wavelength_nm - lam_c) < 0.05
            present = column[window].max() > 0.5 * line.relative_brightness
            assert present == (species in active), (species, v)


def test_x0_trace_only_in_upper_regions(lines, ladder):
    gate = np.linspace(0.82, 1.38, 29)
    lam = np.linspace(1528.0, 1534.0, 1200)
    emission = synth_emission_map([lines["X0"]], ladder, gate, lam,
                                  background=ZERO_BACKGROUND, seed=None)
    for k, v in enumerate(gate):
        has_signal = emission.intensity[:, k].max() > 1e-6
        assert has_signal == (v >= 1.0)


def test_map_deterministic_for_fixed_seed(lines, ladder):
    gate = np.linspace(0.85, 1.35, 9)
    lam = np.linspace(1529.0, 1539.0, 300)
    a = synth_emission_map(list(lines.values()), ladder, gate, lam, seed=42)
    b = synth_emission_map(list(lines.values()), ladder, gate, lam, seed=42)
    assert a.intensity.dtype == np.int64 and a.intensity.shape == (lam.size, gate.size)
    assert np.array_equal(a.intensity, b.intensity)
    c = synth_emission_map(list(lines.values()), ladder, gate, lam, seed=43)
    assert not np.array_equal(a.intensity, c.intensity)


def test_column_totals_follow_poisson_expectation(lines, ladder):
    gate = np.linspace(0.85, 1.35, 25)
    lam = np.linspace(1528.0, 1540.0, 600)
    background = BackgroundModel()
    clean = synth_emission_map(list(lines.values()), ladder, gate, lam,
                               background=background, seed=None)
    noisy = synth_emission_map(list(lines.values()), ladder, gate, lam,
                               background=background, seed=101)
    expected = clean.intensity.sum(axis=0)
    observed = noisy.intensity.sum(axis=0)
    # chi^2 with one term per column: totals are Poisson with mean `expected`
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    assert 0.2 * gate.size < chi2 < 3.0 * gate.size


def test_background_monotone_non_increasing():
    bg = BackgroundModel()
    v = np.linspace(-0.5, 2.0, 200)
    assert np.all(np.diff(bg(v)) <= 0)
