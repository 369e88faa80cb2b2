import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dotdiode import dataio, electrostatics, transport
from dotdiode.constants import Q_E
from dotdiode.device import Layer, LayerStack, build_mesh
from dotdiode.materials import lookup_material, mobility_at
from dotdiode.electrostatics import NonConvergenceError, fermi_half, fermi_half_deriv
from dotdiode.transport import (
    bernoulli, solve_drift_diffusion, iv_sweep,
    detailed_balance_floor, _degeneracy, _ln_gamma,
)

GOLDEN = Path(__file__).parent / "golden"


def test_bernoulli_at_zero():
    assert bernoulli(0.0) == 1.0


@given(st.floats(min_value=-50.0, max_value=50.0))
def test_bernoulli_reflection_identity(x):
    assert bernoulli(x) + x == pytest.approx(bernoulli(-x), rel=1e-12, abs=1e-12)


def test_bernoulli_against_extended_precision():
    import mpmath
    mpmath.mp.dps = 50

    def oracle(x):
        if x == 0:
            return 1.0
        xm = mpmath.mpf(x)
        return float(xm / mpmath.expm1(xm))

    for x in np.concatenate([np.linspace(-50, 50, 101),
                             [-1e-3, -1e-5, -1e-8, 1e-8, 1e-5, 1e-3]]):
        assert bernoulli(float(x)) == pytest.approx(oracle(float(x)), rel=1e-12)


def test_bernoulli_series_is_bit_identical_to_the_power_form():
    x = np.concatenate([np.linspace(-9.99e-5, 9.99e-5, 20_001),
                        [-1e-300, 1e-300, -5e-9, 5e-9]])
    reference = 1.0 - x / 2.0 + x * x / 12.0 - x ** 4 / 720.0
    assert np.array_equal(bernoulli(x), reference)


def test_degeneracy_terms_match_public_kernels():
    eta = np.linspace(-40.0, 60.0, 10_001)
    ln_gamma, alpha = _degeneracy(eta, "fermi")
    np.testing.assert_allclose(ln_gamma, _ln_gamma(eta, "fermi"), rtol=1e-13, atol=1e-14)
    safe = np.maximum(eta, -30.0)
    np.testing.assert_allclose(
        alpha, np.clip(fermi_half_deriv(safe) / fermi_half(safe), 0.02, 1.0), rtol=1e-14)
    ln_gamma_b, alpha_b = _degeneracy(eta, "boltzmann")
    assert not ln_gamma_b.any() and np.all(alpha_b == 1.0)


@pytest.fixture(scope="module")
def slab():
    stack = LayerStack(layers=(Layer("InP", 400.0, donor_cm3=1e16),))
    mesh = build_mesh(stack, 2.0, 0.5, 5.0)
    return stack, mesh


def test_ohmic_slab_matches_resistor_formula(slab):
    stack, mesh = slab
    bias = 0.005
    _, pt, _ = solve_drift_diffusion(stack, mesh, bias)
    m = lookup_material("InP", 300.0)
    mu = mobility_at(m.mobility_e, 1e16, 300.0, m.mobility_T_exponent)
    analytic = Q_E * 1e16 * mu * bias / 400e-7
    assert pt.converged
    assert pt.current_density == pytest.approx(analytic, rel=0.01)


def test_zero_bias_current_below_floor(reference_stack, reference_mesh):
    _, pt, _ = solve_drift_diffusion(reference_stack, reference_mesh, 0.0)
    floor = detailed_balance_floor(reference_stack, reference_mesh)
    assert pt.converged
    assert abs(pt.current_density) < floor


def test_small_sweep_continuity_and_shape(reference_stack, reference_mesh):
    biases = [-0.5, 0.0, 0.5, 1.0]
    curve = iv_sweep(reference_stack, reference_mesh, biases)
    for pt in curve.points:
        assert pt.converged
        assert pt.continuity_error < 1e-6
    j = {pt.bias: pt.current_density for pt in curve.points}
    # superlinear forward branch
    assert j[1.0] > 4.0 * j[0.5] > 0.0
    # asymmetric structure: reverse current differs from the mirrored forward
    assert abs(j[-0.5]) != pytest.approx(abs(j[0.5]), rel=0.05)
    # resistor-like sign convention
    assert j[0.5] > 0 and j[-0.5] < 0


def test_empty_bias_list_gives_empty_curve(reference_stack, reference_mesh):
    curve = iv_sweep(reference_stack, reference_mesh, [])
    assert curve.points == ()


def test_sweep_is_deterministic(reference_stack, reference_mesh, tmp_path):
    biases = [0.0, 0.3]
    a = iv_sweep(reference_stack, reference_mesh, biases)
    b = iv_sweep(reference_stack, reference_mesh, biases)
    a.to_csv(tmp_path / "a.csv")
    b.to_csv(tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_generation_increases_current_where_collection_works(reference_stack,
                                                             reference_mesh):
    dark = iv_sweep(reference_stack, reference_mesh, [0.6])
    lit = iv_sweep(reference_stack, reference_mesh, [0.6], generation=1e22)
    assert lit.points[0].converged
    assert abs(lit.points[0].current_density) >= abs(dark.points[0].current_density)


def test_failed_point_records_the_cycles_it_ran(reference_stack, reference_mesh,
                                                monkeypatch):
    # one Newton step cannot reach the cold-start equilibrium, so the point
    # fails before any Gummel cycle
    monkeypatch.setattr(electrostatics, "NEWTON_MAX_ITERATIONS", 1)
    (pt,) = iv_sweep(reference_stack, reference_mesh, [0.25]).points
    assert not pt.converged
    assert math.isnan(pt.current_density)
    assert pt.gummel_iterations == 0


def test_gummel_failure_carries_the_running_cycle_count(reference_stack, reference_mesh,
                                                        monkeypatch):
    real = transport._solve_poisson
    inner = []

    def fail_on_call_40(arr, efn, efp, phi_bc, phi0, statistics):
        out = real(arr, efn, efp, phi_bc, phi0, statistics)
        if statistics == "boltzmann":        # the Poisson stage of a Gummel cycle
            inner.append(None)
            if len(inner) == 40:
                return out[:4] + (False,) + out[5:]
        return out

    monkeypatch.setattr(transport, "_solve_poisson", fail_on_call_40)
    with pytest.raises(NonConvergenceError) as err:
        solve_drift_diffusion(reference_stack, reference_mesh, 0.5)
    assert err.value.gummel_cycles == 40


def test_default_dark_sweep_matches_golden_iv(reference_stack, reference_mesh):
    stored, _ = dataio.read_table(GOLDEN / "iv_dark.csv")
    curve = iv_sweep(reference_stack, reference_mesh, list(stored["bias_V"]))
    floor = detailed_balance_floor(reference_stack, reference_mesh)
    assert all(pt.converged for pt in curve.points)
    np.testing.assert_allclose(curve.current_densities(), stored["J_Acm2"],
                               rtol=1e-4, atol=floor)


def test_default_dark_sweep_cycle_budget(reference_stack, reference_mesh):
    # unmixed, under-relaxed Gummel cycles needed 3,805 for these 13 points
    curve = iv_sweep(reference_stack, reference_mesh, [-1.0 + k * 0.25 for k in range(13)])
    assert sum(pt.gummel_iterations for pt in curve.points) <= 1000


def test_lit_sweep_matches_golden_iv(reference_stack, reference_mesh):
    stored, _ = dataio.read_table(GOLDEN / "iv_lit.csv")
    curve = iv_sweep(reference_stack, reference_mesh, list(stored["bias_V"]),
                     generation=1e22)
    floor = detailed_balance_floor(reference_stack, reference_mesh)
    assert all(pt.converged for pt in curve.points)
    np.testing.assert_allclose(curve.current_densities(), stored["J_Acm2"],
                               rtol=1e-4, atol=floor)


def test_current_and_area_scaling():
    from dotdiode.transport import IVPoint, MESA_AREA_CM2
    pt = IVPoint(bias=1.0, current_density=2.0, gummel_iterations=3,
                 converged=True, continuity_error=0.0)
    assert pt.current() == pytest.approx(2.0 * MESA_AREA_CM2)
    assert pt.current(area_cm2=1.0) == 2.0
