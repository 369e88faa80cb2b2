import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dotdiode import dataio, electrostatics, transport
from dotdiode.constants import Q_E
from dotdiode.device import Layer, LayerStack, build_mesh, parse_stack
from dotdiode.materials import lookup_material, material_names, mobility_at
from dotdiode.electrostatics import NonConvergenceError, fermi_half, fermi_half_deriv
from dotdiode.transport import (
    bernoulli, solve_drift_diffusion, iv_sweep,
    detailed_balance_floor, _degeneracy,
)

GOLDEN = Path(__file__).parent / "golden"
DEFAULT_GRID = [-1.0 + k * 0.25 for k in range(13)]    # `dotdiode iv` defaults


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


def test_bernoulli_slope_matches_its_difference_quotient():
    x = np.concatenate([np.linspace(-40.0, 40.0, 801), [-1e-3, -5e-5, 0.0, 5e-5, 1e-3]])
    h = 1e-6
    quotient = (bernoulli(x + h) - bernoulli(x - h)) / (2.0 * h)
    b, b_minus = bernoulli(x), bernoulli(-x)
    np.testing.assert_allclose(transport._bernoulli_slope(x, b, b_minus), quotient,
                               rtol=1e-6, atol=1e-9)


def test_degeneracy_terms_match_public_kernels():
    eta = np.linspace(-40.0, 60.0, 10_001)
    ln_gamma, alpha = _degeneracy(eta, "fermi")
    safe = np.maximum(eta, -30.0)
    np.testing.assert_allclose(
        ln_gamma, np.where(eta < -30.0, 0.0, np.log(fermi_half(safe)) - safe),
        rtol=1e-13, atol=1e-14)
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
    _, pt = solve_drift_diffusion(stack, mesh, bias)
    m = lookup_material("InP", 300.0)
    mu = mobility_at(m.mobility_e, 1e16, 300.0, m.mobility_T_exponent)
    analytic = Q_E * 1e16 * mu * bias / 400e-7
    assert pt.converged
    assert pt.current_density == pytest.approx(analytic, rel=0.01)


def test_drift_diffusion_diagram_reports_the_last_newton_update(reference_stack,
                                                                 reference_mesh):
    diagram, pt = solve_drift_diffusion(reference_stack, reference_mesh, 0.5)
    assert pt.converged
    assert 0.0 <= diagram.newton_update < electrostatics.NEWTON_TOLERANCE


def test_zero_bias_current_below_floor(reference_stack, reference_mesh):
    _, pt = solve_drift_diffusion(reference_stack, reference_mesh, 0.0)
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


@settings(max_examples=3, deadline=None)
@given(st.data())
def test_sweep_points_do_not_depend_on_the_bias_order(reference_stack, reference_mesh,
                                                      data):
    biases = data.draw(st.lists(st.sampled_from(DEFAULT_GRID), min_size=4, max_size=5,
                                unique=True))
    shuffled = data.draw(st.permutations(biases))
    by_bias = {pt.bias: pt for pt in iv_sweep(reference_stack, reference_mesh,
                                              sorted(biases)).points}
    curve = iv_sweep(reference_stack, reference_mesh, shuffled)
    assert curve.points == tuple(by_bias[b] for b in shuffled)


def _record_rungs(monkeypatch):
    """The (bias, final) of every rung the sweep's walk solves, in order."""
    rungs = []
    real = transport._walk

    def recording(biases, origin, solve, step):
        def rung(v, start, final):
            rungs.append((v, final))
            return solve(v, start, final)
        return real(biases, origin, rung, step)

    monkeypatch.setattr(transport, "_walk", recording)
    return rungs


def _record_newton_rungs(monkeypatch, failing=lambda bias: False, attempted=None):
    """The (bias, Newton steps) of every Newton rung, in order, a failed
    rung's steps read from its NonConvergenceError. LAPACK reports a singular
    system at every step of a rung whose bias satisfies `failing`. The list
    `attempted`, if given, gets each rung's count of Newton steps begun (the
    calls that build a Jacobian)."""
    real_dgbsv, real_iterate = transport.dgbsv, transport._NewtonWorkspace.iterate
    real_step = transport._NewtonWorkspace._step
    rungs, fail = [], []

    def dgbsv(*args, **kwargs):
        lu, piv, step, info = real_dgbsv(*args, **kwargs)
        return lu, piv, step, 1 if fail[-1] else info

    def step(self, r, terms):
        attempted[-1] += 1
        return real_step(self, r, terms)

    def iterate(self, x, bias):
        fail.append(failing(bias))
        if attempted is not None:
            attempted.append(0)
        try:
            out = real_iterate(self, x, bias)
        except NonConvergenceError as exc:
            rungs.append((bias, exc.gummel_cycles))
            raise
        rungs.append((bias, out[1]))
        return out

    monkeypatch.setattr(transport, "dgbsv", dgbsv)
    monkeypatch.setattr(transport._NewtonWorkspace, "iterate", iterate)
    if attempted is not None:
        monkeypatch.setattr(transport._NewtonWorkspace, "_step", step)
    return rungs


def test_duplicate_biases_are_solved_once(reference_stack, reference_mesh, monkeypatch):
    rungs = _record_rungs(monkeypatch)
    curve = iv_sweep(reference_stack, reference_mesh, [0.5, 0.25, 0.5, 0.25])
    assert rungs == [(0.0, False), (0.25, True), (0.5, True)]
    assert curve.points[0] == curve.points[2] and curve.points[1] == curve.points[3]
    assert list(curve.biases()) == [0.5, 0.25, 0.5, 0.25]


_MID_BRANCH_BIASES = [0.6, -0.3, 0.0, 0.9, 0.3]
# 0.6 V is the third point of the upward branch: its rungs 0.45 and 0.6, then
# the retry's 0.525 and 0.6 again. 0.9 V continues from the last converged
# rung, 0.525 V, over 0.7125 V, so no later rung passes 0.6 V
_MID_BRANCH_RUNGS = [0.0, 0.15, 0.3, 0.45, 0.6, 0.525, 0.6, 0.7125, 0.9, -0.15, -0.3]


def _assert_only_the_mid_branch_point_failed(curve, rungs):
    assert [v for v, _ in rungs] == pytest.approx(_MID_BRANCH_RUNGS, abs=1e-12)
    assert [final for _, final in rungs] == [True, False, True, False, True, False, True,
                                             False, True, False, True]
    assert list(curve.biases()) == _MID_BRANCH_BIASES
    failed, *rest = curve.points
    assert not failed.converged and math.isnan(failed.current_density)
    assert all(pt.converged and math.isfinite(pt.current_density) for pt in rest)
    return failed


def test_mid_branch_failure_marks_only_its_point(reference_stack, reference_mesh,
                                                 monkeypatch):
    # the Gummel rung, under generation
    arr = electrostatics.build_device_arrays(reference_stack, reference_mesh)
    phi_neutral = electrostatics.neutral_potential(arr, "fermi")
    drop = phi_neutral[-1] - phi_neutral[0]
    real = transport._solve_poisson

    def fail_at_0p6(arr, efn, efp, phi_bc, phi0, statistics, tolerance):
        out = real(arr, efn, efp, phi_bc, phi0, statistics, tolerance)
        if abs(phi_bc[1] - phi_bc[0] - drop - 0.6) < 1e-9:
            return out[:4] + (False,) + out[5:]
        return out

    real_iterate = transport._GummelWorkspace.iterate
    cycles = {}                 # cycles of each converged rung, by bias

    def counted(self, x, bias, max_cycles, tolerance):
        out = real_iterate(self, x, bias, max_cycles, tolerance)
        cycles[round(bias, 9)] = out[1]
        return out

    monkeypatch.setattr(transport, "_solve_poisson", fail_at_0p6)
    monkeypatch.setattr(transport._GummelWorkspace, "iterate", counted)
    rungs = _record_rungs(monkeypatch)
    curve = iv_sweep(reference_stack, reference_mesh, _MID_BRANCH_BIASES, generation=1e22)
    failed = _assert_only_the_mid_branch_point_failed(curve, rungs)
    # the 0.45 V and 0.525 V rungs converge; each 0.6 V attempt fails in its
    # first cycle
    assert 0.6 not in cycles
    assert failed.gummel_iterations == cycles[0.45] + cycles[0.525] + 2


def test_mid_branch_newton_failure_marks_only_its_point(reference_stack, reference_mesh,
                                                        monkeypatch):
    steps = _record_newton_rungs(monkeypatch, lambda bias: abs(bias - 0.6) < 1e-9)
    rungs = _record_rungs(monkeypatch)
    curve = iv_sweep(reference_stack, reference_mesh, _MID_BRANCH_BIASES)
    failed = _assert_only_the_mid_branch_point_failed(curve, rungs)
    # each 0.6 V attempt fails at its first step
    by_bias = dict((round(v, 9), n) for v, n in steps)
    assert [n for v, n in steps if abs(v - 0.6) < 1e-9] == [1, 1]
    assert failed.gummel_iterations == by_bias[0.45] + by_bias[0.525] + 2


@pytest.mark.parametrize("step", [0.1, 0.5, 1.0])
def test_wide_dark_sweeps_converge_and_match_golden(reference_stack, reference_mesh, step):
    biases = [-2.0 + k * step for k in range(int(round(4.0 / step)) + 1)]
    _assert_sweep_matches_golden(reference_stack, reference_mesh, biases, 0.0, "iv_dark")


def test_coarse_lit_sweep_converges_and_matches_golden(reference_stack, reference_mesh):
    _assert_sweep_matches_golden(reference_stack, reference_mesh, [0.0, 1.0, 2.0], 1e22,
                                 "iv_lit")


def _assert_sweep_matches_golden(stack, mesh, biases, generation, golden):
    curve = iv_sweep(stack, mesh, biases, generation=generation)
    assert all(pt.converged for pt in curve.points)
    j_at = {round(pt.bias, 9): pt.current_density for pt in curve.points}
    stored, _ = dataio.read_table(GOLDEN / f"{golden}.csv")
    shared = [(j_at[round(b, 9)], j) for b, j in zip(stored["bias_V"], stored["J_Acm2"])
              if round(b, 9) in j_at]
    assert len(shared) >= 3
    floor = detailed_balance_floor(stack, mesh)
    for j_sweep, j_golden in shared:
        assert j_sweep == pytest.approx(j_golden, rel=1e-4, abs=floor)


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
    _assert_equilibrium_failure_runs_no_rung(reference_stack, reference_mesh, monkeypatch,
                                             1e22)


def test_failed_newton_point_records_the_steps_it_ran(reference_stack, reference_mesh,
                                                      monkeypatch):
    _assert_equilibrium_failure_runs_no_rung(reference_stack, reference_mesh, monkeypatch,
                                             0.0)


def _assert_equilibrium_failure_runs_no_rung(stack, mesh, monkeypatch, generation):
    monkeypatch.setattr(electrostatics, "NEWTON_MAX_ITERATIONS", 1)
    (pt,) = iv_sweep(stack, mesh, [0.25], generation=generation).points
    assert not pt.converged
    assert math.isnan(pt.current_density)
    assert pt.gummel_iterations == 0


def test_gummel_failure_carries_the_running_cycle_count(reference_stack, reference_mesh,
                                                        monkeypatch):
    real_iterate = transport._GummelWorkspace.iterate
    cycles = []                 # cycles of each converged rung, in order

    def counted(self, x, bias, max_cycles, tolerance):
        out = real_iterate(self, x, bias, max_cycles, tolerance)
        cycles.append(out[1])
        return out

    monkeypatch.setattr(transport._GummelWorkspace, "iterate", counted)
    solve_drift_diffusion(reference_stack, reference_mesh, 0.5, generation=1e22)
    first = sum(cycles[:2])     # the 0 V and 0.25 V rungs
    real = transport._solve_poisson
    inner = []

    def fail_from_the_third_rung(arr, efn, efp, phi_bc, phi0, statistics, tolerance):
        out = real(arr, efn, efp, phi_bc, phi0, statistics, tolerance)
        if statistics == "boltzmann":        # the Poisson stage of a Gummel cycle
            inner.append(None)
            if len(inner) > first:
                return out[:4] + (False,) + out[5:]
        return out

    monkeypatch.setattr(transport, "_solve_poisson", fail_from_the_third_rung)
    with pytest.raises(NonConvergenceError) as err:
        solve_drift_diffusion(reference_stack, reference_mesh, 0.5, generation=1e22)
    # 0 V and 0.25 V converge; 0.5 V fails in its first cycle, and so does the
    # first cycle of its retry from 0.25 V
    assert err.value.gummel_cycles == first + 2 and err.value.last_bias == 0.25


def test_newton_failure_carries_the_running_step_count(reference_stack, reference_mesh,
                                                       monkeypatch):
    steps = _record_newton_rungs(monkeypatch, lambda bias: bias > 0.25)
    with pytest.raises(NonConvergenceError) as err:
        solve_drift_diffusion(reference_stack, reference_mesh, 0.5)
    # 0 V and 0.25 V converge; 0.5 V and its retry at 0.375 V fail at their
    # first step
    assert [v for v, _ in steps] == [0.0, 0.25, 0.5, 0.375]
    assert err.value.gummel_cycles == steps[0][1] + steps[1][1] + 2
    assert err.value.last_bias == 0.25


@pytest.mark.parametrize("temperature", [10.0, 4.0, 20.0])
def test_low_temperature_breakdown_is_a_failed_point(reference_stack, temperature,
                                                     monkeypatch):
    # at a few kelvin the densities and the Slotboom factors exp(w/kT) leave
    # the float range, and at 20 K the carrier range exceeds what the rung can
    # resolve: every point fails, with NaN current, the Newton steps its
    # rungs ran, and no warning
    stack = dataclasses.replace(reference_stack, temperature=temperature)
    mesh = build_mesh(stack)
    attempted = []
    steps = _record_newton_rungs(monkeypatch, attempted=attempted)
    rungs = _record_rungs(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = iv_sweep(stack, mesh, [0.0, 0.5])
    assert [pt.converged for pt in curve.points] == [False, False]
    assert all(math.isnan(pt.current_density) for pt in curve.points)
    # the first rung solves 0 V; every later one belongs to 0.5 V
    assert [v for v, _ in steps] == [v for v, _ in rungs] and rungs[0] == (0.0, True)
    # every rung failed, each reporting the steps it began
    assert [n for _, n in steps] == attempted
    assert [pt.gummel_iterations for pt in curve.points] == [
        steps[0][1], sum(n for _, n in steps[1:])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergenceError) as err:
            solve_drift_diffusion(stack, mesh, 0.0)
    assert f"V = 0.0 V, T = {temperature} K" in str(err.value)
    assert err.value.gummel_cycles == steps[-1][1]


def test_default_dark_sweep_matches_golden_iv(reference_stack, reference_mesh):
    stored, _ = dataio.read_table(GOLDEN / "iv_dark.csv")
    curve = iv_sweep(reference_stack, reference_mesh, list(stored["bias_V"]))
    floor = detailed_balance_floor(reference_stack, reference_mesh)
    assert all(pt.converged for pt in curve.points)
    np.testing.assert_allclose(curve.current_densities(), stored["J_Acm2"],
                               rtol=1e-4, atol=floor)


def test_default_dark_sweep_cycle_budget(reference_stack, reference_mesh):
    # unmixed, under-relaxed Gummel cycles needed 3,805 for these 13 points,
    # Anderson-mixed cycles solved in the given order from -1 V 694, and
    # Gummel cycles 243; the Newton rung takes at most 15 steps a point
    curve = iv_sweep(reference_stack, reference_mesh, DEFAULT_GRID)
    assert sum(pt.gummel_iterations for pt in curve.points) <= 255
    assert max(pt.gummel_iterations for pt in curve.points) <= 15


def test_every_swept_diagram_reports_a_converged_poisson_stage(reference_stack,
                                                               reference_mesh):
    # a Gummel cycle's Poisson stage may stop early, at a tolerance set by the
    # previous cycle's quasi-Fermi update; the cycle that ends a point may not
    for biases, generation in ((DEFAULT_GRID, 1e22), ([0.0, 0.5, 1.0, 1.5, 2.0], 1e22)):
        swept = list(transport._iv_sweep(reference_stack, reference_mesh, biases,
                                         generation, "fermi"))
        assert sorted(bias for bias, _ in swept) == sorted(biases)
        for _, (diagram, point) in swept:
            assert point.converged
            assert 0.0 <= diagram.newton_update < electrostatics.NEWTON_TOLERANCE


def test_a_loosely_solved_poisson_stage_never_ends_a_point(reference_stack, reference_mesh,
                                                          monkeypatch):
    # every stage solved to a looser tolerance claims an update just above
    # NEWTON_TOLERANCE, so only a cycle whose stage ran to the full
    # tolerance may end the point
    real = transport._solve_poisson
    loose = []

    def stop_loose(arr, efn, efp, phi_bc, phi0, statistics, tolerance):
        out = real(arr, efn, efp, phi_bc, phi0, statistics, tolerance)
        if tolerance > electrostatics.NEWTON_TOLERANCE:
            loose.append(tolerance)
            return out[:5] + (max(out[5], 2.0 * electrostatics.NEWTON_TOLERANCE),)
        return out

    monkeypatch.setattr(transport, "_solve_poisson", stop_loose)
    diagram, pt = solve_drift_diffusion(reference_stack, reference_mesh, 0.5, generation=1e22)
    assert pt.converged and loose
    assert diagram.newton_update < electrostatics.NEWTON_TOLERANCE


@pytest.mark.parametrize("temperature", [55.0, 77.0, 120.0])
def test_cryogenic_sweep_converges_at_every_bias(reference_stack, temperature):
    # with 0.125 V rungs, no retry and unconverged rungs carried on, 1 V
    # failed at 55 K and 77 K, and 0.5 V at 120 K
    stack = dataclasses.replace(reference_stack, temperature=temperature)
    curve = iv_sweep(stack, build_mesh(stack), [0.0, 0.5, 1.0])
    assert all(pt.converged and math.isfinite(pt.current_density) for pt in curve.points)


def test_unconverged_point_is_written_as_failed(tmp_path, monkeypatch):
    # three Gummel cycles cannot reach 1e-8 V at 0.5 V: the point is failed,
    # with the cycles it ran, not a current from an unconverged state
    from dotdiode.cli import main
    monkeypatch.setattr(transport, "MAX_GUMMEL", 3)
    assert main(["iv", "--vmin", "0.5", "--vmax", "0.5", "--generation", "1e22",
                 "--out", str(tmp_path)]) == 2
    cols, meta = dataio.read_table(tmp_path / "iv.csv")
    assert math.isnan(cols["J_Acm2"][0]) and cols["converged"][0] == 0
    assert cols["gummel_iterations"][0] > 6 and meta["all_converged"] == "False"


def test_unconverged_newton_point_is_written_as_failed(tmp_path, monkeypatch):
    # two Newton steps reach 0 V from its seed, not 0.25 V or the retry's
    # 0.125 V: the 0.5 V point is failed, with the steps its rungs ran
    from dotdiode.cli import main
    monkeypatch.setattr(transport, "NEWTON_MAX_ITERATIONS", 2)
    steps = _record_newton_rungs(monkeypatch)
    assert main(["iv", "--vmin", "0.5", "--vmax", "0.5", "--out", str(tmp_path)]) == 2
    cols, meta = dataio.read_table(tmp_path / "iv.csv")
    assert math.isnan(cols["J_Acm2"][0]) and cols["converged"][0] == 0
    assert [v for v, _ in steps] == [0.0, 0.25, 0.125]
    assert cols["gummel_iterations"][0] == sum(n for _, n in steps) == steps[0][1] + 4
    assert meta["all_converged"] == "False"


def test_a_rung_that_failed_is_not_solved_again(reference_stack, reference_mesh,
                                                monkeypatch):
    # every Gummel cycle between 0 V and 0.3 V fails, so 0.5 V fails at its
    # 0.25 V rung and at the retry's 0.125 V rung; 1 V would start from the
    # same 0 V state with the same 0.25 V rung, and fails at once
    arr = electrostatics.build_device_arrays(reference_stack, reference_mesh)
    drop = np.diff(electrostatics.neutral_potential(arr, "fermi")[[0, -1]])[0]
    real = transport._solve_poisson

    def fail_below_0p3(arr, efn, efp, phi_bc, phi0, statistics, tolerance):
        out = real(arr, efn, efp, phi_bc, phi0, statistics, tolerance)
        if statistics == "boltzmann" and 0.0 < phi_bc[1] - phi_bc[0] - drop < 0.3:
            return out[:4] + (False,) + out[5:]
        return out

    monkeypatch.setattr(transport, "_solve_poisson", fail_below_0p3)
    _assert_failed_rungs_are_not_repeated(reference_stack, reference_mesh, monkeypatch, 1e22)


def test_a_newton_rung_that_failed_is_not_solved_again(reference_stack, reference_mesh,
                                                       monkeypatch):
    _record_newton_rungs(monkeypatch, lambda bias: 0.0 < bias < 0.3)
    _assert_failed_rungs_are_not_repeated(reference_stack, reference_mesh, monkeypatch, 0.0)


def _assert_failed_rungs_are_not_repeated(stack, mesh, monkeypatch, generation):
    rungs = _record_rungs(monkeypatch)
    swept = dict(transport._iv_sweep(stack, mesh, [0.0, 0.5, 1.0], generation, "fermi"))
    assert rungs == [(0.0, True), (0.25, False), (0.125, False)]
    assert isinstance(swept[0.0], tuple) and swept[0.0][1].converged
    # each failed rung ran one iteration
    assert [swept[b].gummel_cycles for b in (0.5, 1.0)] == [2, 0]
    assert swept[1.0].last_bias == 0.0


def test_newton_and_gummel_rungs_agree_on_the_dark_sweep(reference_stack, reference_mesh):
    # the Gummel rung, composed here for a dark sweep as _iv_sweep composes
    # it under generation
    arr, phi_neutral, solve = electrostatics._set_up(reference_stack, reference_mesh, "fermi")
    efn, phi, n, p, *_ = solve(0.0, phi_neutral)
    ws = transport._GummelWorkspace(reference_stack, reference_mesh, arr, phi_neutral, 0.0,
                                    "fermi")

    def rung(v, start, final):
        limits = ((transport.MAX_GUMMEL, transport.QF_TOLERANCE) if final else
                  (transport.MAX_GUMMEL_CONTINUATION, transport.QF_TOLERANCE_CONTINUATION))
        x, _, _ = ws.iterate(ws.restep(*start, v), v, *limits)
        return x, -float(np.mean(ws.finalize(x, v)[-1])) if final else None

    gummel = dict(electrostatics._walk(DEFAULT_GRID, ws.seed(efn, phi, n, p), rung,
                                       electrostatics.CONTINUATION_STEP))
    newton = iv_sweep(reference_stack, reference_mesh, DEFAULT_GRID)
    floor = detailed_balance_floor(reference_stack, reference_mesh)
    for pt in newton.points:
        assert pt.current_density == pytest.approx(gummel[pt.bias], rel=1e-5, abs=floor)


def test_newton_jacobian_matches_difference_quotients(reference_stack, reference_mesh):
    # at a rough state at 0.3 V, every Jacobian column, against central
    # differences of the residual, relative to each row's largest entry. The
    # electron conservation rows are J_i - J_i-1 and a recombination source
    # taken as it stands, so their slopes are the exact +-1 and are left out
    arr, phi_neutral, solve = electrostatics._set_up(reference_stack, reference_mesh, "fermi")
    phi = solve(0.0, phi_neutral)[1]
    ws = transport._NewtonWorkspace(reference_stack, reference_mesh, arr, phi_neutral, "fermi")
    rng = np.random.default_rng(0)
    bias, vt, nodes = 0.3, arr.Vt, reference_mesh.n_nodes
    ws.bc = np.array([[0.0, -bias], [phi_neutral[0], phi_neutral[-1] + bias],
                      [0.0, -bias]]) / vt
    split = electrostatics.quasi_fermi_split(reference_stack, reference_mesh, bias) / vt
    z = np.zeros((4, nodes))
    z[transport._PHI] = phi / vt
    z[transport._N] = 0.5 * split + 0.1 * rng.standard_normal(nodes)
    z[transport._P] = 0.5 * split + 0.1 * rng.standard_normal(nodes)
    z[transport._J] = 1e3 * rng.standard_normal(nodes)

    di, up, lo = ws._blocks(ws._residual(z)[1])
    rowmax = np.abs(di).max(axis=1)
    rowmax[:, :-1] = np.maximum(rowmax[:, :-1], np.abs(up).max(axis=1))
    rowmax[:, 1:] = np.maximum(rowmax[:, 1:], np.abs(lo).max(axis=1))
    for node in rng.integers(1, nodes - 1, size=12):
        for unknown in range(4):
            h = 1e-7 * max(abs(z[unknown, node]), 1.0)
            dz = np.zeros_like(z)
            dz[unknown, node] = h
            quotient = (ws._residual(z + dz)[0] - ws._residual(z - dz)[0]) / (2.0 * h)
            column = np.zeros_like(z)
            column[:, node] = di[:, unknown, node]
            column[:, node - 1] = up[:, unknown, node - 1]
            column[:, node + 1] = lo[:, unknown, node]
            error = np.abs(quotient - column)[:, node - 1:node + 2] / rowmax[:, node - 1:node + 2]
            error[transport._N] = 0.0
            assert np.all(error * max(abs(z[unknown, node]), 1.0) < 1e-6), (node, unknown)


_DOPING = st.one_of(st.just(0.0), st.floats(1e14, 1e19).map(lambda x: float(f"{x:.1e}")))
_LAYER = st.fixed_dictionaries({
    "material": st.sampled_from(material_names()),
    "thickness_nm": st.floats(2.0, 200.0),
    "donor_cm3": _DOPING,
    "acceptor_cm3": _DOPING,
})


@settings(max_examples=30, deadline=None, derandomize=True)
@given(layers=st.lists(_LAYER, min_size=1, max_size=4),
       biases=st.lists(st.integers(-8, 8).map(lambda k: 0.25 * k), min_size=2, max_size=3))
def test_random_stacks_dark_iv_converges_or_fails_by_name(layers, biases):
    """A dark IV sweep of any 1-4-layer stack at 300 K gives each bias a
    converged point with finite current, continuity held at every nonzero
    bias, or a failed point with NaN current; it never raises and never
    warns. Continuity is measured to the precision the element fluxes allow:
    a few ulps of the largest SG term over the current (a thin p-doped stack
    carrying 1e-4 A/cm^2 reaches 3e-6 that way)."""
    stack = parse_stack({"layers": layers})
    mesh = build_mesh(stack)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        swept = dict(transport._iv_sweep(stack, mesh, biases, 0.0, "fermi"))
        curve = iv_sweep(stack, mesh, biases)
    arr = electrostatics.build_device_arrays(stack, mesh)
    conductance = Q_E * arr.Vt / arr.h
    for pt in curve.points:
        result = swept[pt.bias]
        if isinstance(result, NonConvergenceError):
            assert not pt.converged and math.isnan(pt.current_density)
            continue
        diagram, _ = result
        assert pt.converged and math.isfinite(pt.current_density)
        if pt.bias != 0.0:
            term = max(np.max(conductance * arr.mu_e_el * diagram.n[:-1]),
                       np.max(conductance * arr.mu_h_el * diagram.p[:-1]))
            rounding = 16 * np.finfo(float).eps * term / abs(pt.current_density)
            assert pt.continuity_error < max(1e-6, rounding)


def test_lit_sweep_cycle_budget(reference_stack, reference_mesh):
    # solved in the given order from 0 V, without the secant predictor: 259
    curve = iv_sweep(reference_stack, reference_mesh, [0.0, 0.5, 1.0, 1.5, 2.0],
                     generation=1e22)
    assert sum(pt.gummel_iterations for pt in curve.points) <= 170


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
