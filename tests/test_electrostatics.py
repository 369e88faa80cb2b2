import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.linalg import LinAlgError
from scipy.linalg import solve_banded

from dotdiode.constants import thermal_voltage
from dotdiode.device import Layer, LayerStack, build_mesh, parse_stack
from dotdiode import electrostatics, transport
from dotdiode.cli import main
from dotdiode.electrostatics import (
    NonConvergenceError, band_sweep, solve_bias,
    field_lever_arm, build_device_arrays, carrier_densities, neutral_potential,
    _solve_poisson, _tridiag_solve,
)
from dotdiode.materials import lookup_material, material_names


@pytest.fixture(scope="module")
def equilibrium(reference_stack, reference_mesh):
    return solve_bias(reference_stack, reference_mesh, 0.0)


def test_uniform_slab_flat_bands():
    stack = LayerStack(layers=(Layer("InP", 400.0, donor_cm3=1e16),))
    mesh = build_mesh(stack, 2.0, 0.5, 5.0)
    bd = solve_bias(stack, mesh, 0.0)
    assert bd.converged
    assert np.ptp(bd.Ec) < 1e-5          # < 10 ueV band-edge variation
    assert np.max(np.abs(bd.n / 1e16 - 1.0)) < 1e-6


def test_junction_builtin_potential_nondegenerate_branch():
    stack = LayerStack(layers=(Layer("InP", 500.0, donor_cm3=1e18),
                               Layer("InP", 500.0, donor_cm3=1e16)))
    mesh = build_mesh(stack, 5.0, 0.5, 20.0)
    bd = solve_bias(stack, mesh, 0.0, "boltzmann")
    x = mesh.nodes
    vbi_solver = float(np.mean(bd.phi[x < 50.0]) - np.mean(bd.phi[x > 950.0]))
    vbi_analytic = thermal_voltage(300.0) * np.log(1e18 / 1e16)
    assert abs(vbi_solver - vbi_analytic) < 2e-3


def test_reference_equilibrium_shows_two_barriers(equilibrium, reference_mesh):
    bd = equilibrium
    x = reference_mesh.nodes
    b1 = (x >= 320.0) & (x <= 390.0)
    b2 = (x >= 436.0) & (x <= 506.0)
    outside = ~(b1 | b2)
    assert bd.converged
    assert bd.Ec[b1].max() > bd.Ec[outside].max()
    assert bd.Ec[b2].max() > bd.Ec[outside].max()


def test_band_edge_separation_is_the_local_gap(reference_stack, reference_mesh,
                                               equilibrium):
    mats = [lookup_material(l.material, 300.0) for l in reference_stack.layers]
    gaps = np.array([m.Eg for m in mats])[reference_mesh.node_layer]
    assert np.allclose(equilibrium.Ec - equilibrium.Ev, gaps, atol=1e-12)


def test_discrete_gauss_law(reference_stack, reference_mesh, equilibrium):
    from dotdiode import constants
    from dotdiode.device import element_profile
    bd = equilibrium
    arr = build_device_arrays(reference_stack, reference_mesh)
    rho = constants.Q_E * (bd.p - bd.n + arr.Nd - arr.Na)
    interior_charge = float(np.sum((rho * arr.w)[1:-1]))
    flux = constants.EPS_0 * arr.eps_el * np.diff(bd.phi) / arr.h
    boundary_term = float(flux[-1] - flux[0])
    scale = float(np.sum(np.abs(rho * arr.w)))
    assert abs(interior_charge + boundary_term) < 1e-8 * scale


def test_zero_bias_equals_equilibrium(reference_stack, reference_mesh, equilibrium):
    bd = solve_bias(reference_stack, reference_mesh, 0.0)
    assert np.max(np.abs(bd.phi - equilibrium.phi)) < 1e-12


def test_intrinsic_tilt_monotone_in_bias(reference_stack, reference_mesh):
    x = reference_mesh.nodes
    i0 = int(np.argmin(np.abs(x - 300.0)))
    i1 = int(np.argmin(np.abs(x - 541.0)))
    drops = []
    for bias in [-0.5, 0.0, 0.5, 1.0]:
        bd = solve_bias(reference_stack, reference_mesh, bias)
        assert bd.converged
        drops.append(bd.phi[i1] - bd.phi[i0])
    assert np.all(np.diff(drops) > 0)


def test_contact_potential_difference_equals_applied_bias(reference_stack,
                                                          reference_mesh,
                                                          equilibrium):
    for bias in [-0.5, 0.7, 1.0]:
        bd = solve_bias(reference_stack, reference_mesh, bias)
        shift = (bd.phi[-1] - bd.phi[0]) - (equilibrium.phi[-1] - equilibrium.phi[0])
        assert shift == pytest.approx(bias, abs=1e-12)


def test_mean_intrinsic_field_against_lever_arm(reference_stack, reference_mesh):
    bd = solve_bias(reference_stack, reference_mesh, 1.2)
    x = reference_mesh.nodes
    inside = (x > 300.0) & (x < 541.0)
    mean_field_kV = float(np.mean(np.abs(bd.field[inside]))) / 1e3
    estimate = field_lever_arm(1.2, 240.0)
    ratio = mean_field_kV / estimate
    assert 0.2 < ratio < 5.0, f"solver {mean_field_kV:.1f} vs lever arm {estimate:.1f} kV/cm"


def test_field_lever_arm_values():
    assert field_lever_arm(1.2, 240.0) == pytest.approx(50.0, rel=1e-12)
    assert field_lever_arm(0.0, 240.0) == 0.0
    assert field_lever_arm(1.7, 240.0) == pytest.approx(1.7e4 / 240.0, rel=1e-12)
    with pytest.raises(ValueError):
        field_lever_arm(1.0, 0.0)


def test_nonconvergence_reports_residual_history(reference_stack, reference_mesh,
                                                 monkeypatch):
    monkeypatch.setattr(electrostatics, "NEWTON_MAX_ITERATIONS", 1)
    monkeypatch.setattr(electrostatics, "NEWTON_TOLERANCE", 1e-14)
    with pytest.raises(NonConvergenceError) as err:
        solve_bias(reference_stack, reference_mesh, 0.0)
    assert len(err.value.residual_history) >= 1


def test_bias_sanity_bound(reference_stack, reference_mesh):
    with pytest.raises(ValueError):
        solve_bias(reference_stack, reference_mesh, 6.0)


def _stratified_biases(seed, count=40, span=2.0):
    """One uniform draw in each of `count` equal strata of [-span, span]."""
    rng = np.random.default_rng(seed)
    width = 2.0 * span / count
    return [float(-span + (k + rng.random()) * width) for k in range(count)]


def test_band_sweep_matches_lone_solves(reference_stack, reference_mesh):
    """Each diagram of a sweep, continued from its solved neighbour, is the
    diagram a lone solve continues to from equilibrium."""
    biases = _stratified_biases(10)
    yielded = []
    for bias, bd in band_sweep(reference_stack, reference_mesh, biases):
        lone = solve_bias(reference_stack, reference_mesh, bias)
        assert bd.converged and bd.bias == bias
        assert np.max(np.abs(bd.phi - lone.phi)) <= 1e-12
        np.testing.assert_allclose(bd.n, lone.n, rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(bd.p, lone.p, rtol=1e-10, atol=0.0)
        yielded.append(bias)
    up = sorted(b for b in biases if b > 0.0)
    down = sorted((b for b in biases if b < 0.0), reverse=True)
    assert yielded == up + down


def test_band_sweep_newton_budget(reference_stack, reference_mesh, monkeypatch):
    # each rung started from its solved neighbour's potential: 344 Newton steps
    # over these 40 biases; from the secant through the last two rungs: 180
    real = electrostatics._solve_poisson
    steps = []

    def counted(*args):
        out = real(*args)
        steps.append(len(out[3]))
        return out

    monkeypatch.setattr(electrostatics, "_solve_poisson", counted)
    swept = list(band_sweep(reference_stack, reference_mesh, _stratified_biases(10)))
    assert all(bd.converged for _, bd in swept) and len(steps) == 41
    assert sum(steps) <= 220


@example(0.0, 0.7)          # the Boltzmann golden's bias: 0.7 * 3 / 3 is not 0.7
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_bias_ladder_ends_exactly_at_its_target(start, target):
    step = electrostatics.CONTINUATION_STEP
    ladder = electrostatics._bias_ladder(start, target, step)
    assert ladder[-1] == target
    gaps = np.diff([start, *ladder])
    assert np.all(np.abs(gaps) <= step * (1.0 + 1e-12))
    assert len(ladder) == max(1, int(np.ceil(abs(target - start) / step)))


_DOPING = st.one_of(st.just(0.0), st.floats(1e14, 1e19).map(lambda x: float(f"{x:.1e}")))
_LAYER = st.fixed_dictionaries({
    "material": st.sampled_from(material_names()),
    "thickness_nm": st.floats(2.0, 200.0),
    "donor_cm3": _DOPING,
    "acceptor_cm3": _DOPING,
})


@settings(max_examples=30, deadline=None, derandomize=True)
@given(layers=st.lists(_LAYER, min_size=1, max_size=4),
       biases=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))
def test_random_stacks_converge_or_fail_by_name(layers, biases):
    """A band sweep of any 1-4-layer stack from the material database gives
    each bias a converged diagram with finite potential and finite,
    non-negative densities, or a NonConvergenceError; it never raises
    anything else and never warns."""
    stack = parse_stack({"layers": layers})
    mesh = build_mesh(stack)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        swept = dict(band_sweep(stack, mesh, biases))
    assert sorted(swept) == sorted(set(biases))
    for bd in swept.values():
        if isinstance(bd, NonConvergenceError):
            continue
        assert bd.converged and np.isfinite(bd.phi).all()
        for density in (bd.n, bd.p):
            assert np.isfinite(density).all() and (density >= 0.0).all()


_ORDER_BIASES = (-1.3, -0.4, 0.0, 0.35, 0.9, 0.9, 1.6)


@pytest.fixture(scope="module")
def sorted_sweep(reference_stack, reference_mesh):
    return dict(band_sweep(reference_stack, reference_mesh, sorted(_ORDER_BIASES)))


@settings(max_examples=4, deadline=None, derandomize=True)
@given(biases=st.permutations(_ORDER_BIASES))
def test_band_sweep_is_independent_of_bias_order(reference_stack, reference_mesh,
                                                  sorted_sweep, biases):
    swept = list(band_sweep(reference_stack, reference_mesh, biases))
    assert len(swept) == len(sorted_sweep)
    for bias, bd in swept:
        ref = sorted_sweep[bias]
        assert all(np.array_equal(getattr(bd, f), getattr(ref, f))
                   for f in ("phi", "n", "p", "field"))
        assert bd.newton_update == ref.newton_update


def test_band_sweep_failure_fails_only_that_bias(reference_stack, reference_mesh,
                                                 monkeypatch):
    """A bias whose solve fails, also after its retry at half the step, is
    yielded with its error; the next bias on its side continues from the last
    converged rung, the other side is untouched."""
    phi_n = neutral_potential(build_device_arrays(reference_stack, reference_mesh))
    real = electrostatics._solve_poisson
    contacts = []

    def fail_at_0p4(arr, efn, efp, phi_bc, phi0, statistics):
        v = phi_bc[1] - phi_n[-1]
        contacts.append(v)
        out = real(arr, efn, efp, phi_bc, phi0, statistics)
        if abs(v - 0.4) < 1e-9:
            return out[:4] + (False,) + out[5:]
        return out

    monkeypatch.setattr(electrostatics, "_solve_poisson", fail_at_0p4)
    swept = dict(band_sweep(reference_stack, reference_mesh, [0.7, -0.3, 0.4, 0.2]))
    err = swept.pop(0.4)
    assert isinstance(err, NonConvergenceError)
    assert err.last_bias == pytest.approx(0.3, abs=1e-12)
    assert all(bd.converged for bd in swept.values())
    # equilibrium, 0.2, 0.4 (failed), the retry's 0.3 and 0.4 (failed), then 0.5
    # and 0.7 from 0.3, then -0.15 and -0.3
    np.testing.assert_allclose(contacts, [0.0, 0.2, 0.4, 0.3, 0.4, 0.5, 0.7, -0.15, -0.3],
                               atol=1e-12)
    monkeypatch.setattr(electrostatics, "_solve_poisson", real)
    lone = solve_bias(reference_stack, reference_mesh, 0.7)
    assert np.max(np.abs(swept[0.7].phi - lone.phi)) <= 1e-12


def test_band_sweep_failed_equilibrium_fails_every_bias(reference_stack, reference_mesh,
                                                        monkeypatch):
    monkeypatch.setattr(electrostatics, "NEWTON_MAX_ITERATIONS", 1)
    monkeypatch.setattr(electrostatics, "NEWTON_TOLERANCE", 1e-14)
    swept = list(band_sweep(reference_stack, reference_mesh, [0.5, 0.0, -0.5]))
    # 0 V first, then outward; each side starts from the neutral potential
    assert [b for b, _ in swept] == [0.0, 0.5, -0.5]
    assert all(isinstance(r, NonConvergenceError) and r.residual_history
               for _, r in swept)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -5.5])
def test_band_sweep_rejects_a_bad_bias_before_solving(reference_stack, reference_mesh,
                                                      monkeypatch, bad):
    monkeypatch.setattr(electrostatics, "build_device_arrays", None)
    with pytest.raises(ValueError, match=str(bad)):
        band_sweep(reference_stack, reference_mesh, [0.0, bad, 7.0])


@pytest.mark.parametrize("argv, fail_at, code", [
    (["bandedges", "--bias", "-2", "--bias", "-0.5", "--bias", "0", "--bias", "0.5",
      "--bias", "1.0", "--bias", "2"], None, 0),
    (["iv"], None, 0),
    (["iv", "--vmin", "-0.3", "--vmax", "0.9", "--step", "0.3", "--generation", "1e22"], 0.6, 2),
], ids=["bandedges", "iv", "iv-failed-point"])
def test_sweep_command_builds_the_set_up_once(tmp_path, monkeypatch, reference_stack,
                                              reference_mesh, argv, fail_at, code):
    """One device set-up and one Fermi equilibrium per command, also when a
    point fails mid-branch (`fail_at`: the Poisson stage of the Gummel rung,
    which solves under generation, fails there)."""
    from dotdiode import transport
    phi_n = neutral_potential(build_device_arrays(reference_stack, reference_mesh))
    calls = {"build_device_arrays": 0, "neutral_potential": 0, "equilibrium": 0}
    for name in ("build_device_arrays", "neutral_potential"):
        real = getattr(electrostatics, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        for module in (electrostatics, transport):     # every binding of it
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    real_poisson = electrostatics._solve_poisson

    def counted_poisson(arr, efn, efp, phi_bc, phi0, statistics):
        calls["equilibrium"] += statistics == "fermi" and not efn.any()
        return real_poisson(arr, efn, efp, phi_bc, phi0, statistics)

    def failing_poisson(arr, efn, efp, phi_bc, phi0, statistics, tolerance):
        out = real_poisson(arr, efn, efp, phi_bc, phi0, statistics, tolerance)
        if abs(phi_bc[1] - phi_n[-1] - fail_at) < 1e-9:
            return out[:4] + (False,) + out[5:]
        return out

    monkeypatch.setattr(electrostatics, "_solve_poisson", counted_poisson)
    if fail_at is not None:
        monkeypatch.setattr(transport, "_solve_poisson", failing_poisson)
    assert main([*argv, "--out", str(tmp_path)]) == code
    assert calls == {"build_device_arrays": 1, "neutral_potential": 1, "equilibrium": 1}


def test_csv_export_columns(tmp_path, reference_stack, reference_mesh, equilibrium):
    from dotdiode.dataio import read_table
    path = tmp_path / "band.csv"
    equilibrium.to_csv(path)
    cols, meta = read_table(path)
    assert list(cols) == ["position_nm", "Ec_eV", "Ev_eV", "phi_V", "n_cm3",
                          "p_cm3", "F_Vcm"]
    assert meta["converged"] == "True"
    assert float(meta["bias_V"]) == 0.0


@pytest.mark.parametrize("statistics", ["fermi", "boltzmann"])
def test_solve_returns_the_densities_of_its_potential(reference_stack, reference_mesh,
                                                      statistics):
    bd = solve_bias(reference_stack, reference_mesh, 0.5, statistics)
    arr = build_device_arrays(reference_stack, reference_mesh)
    n, p = carrier_densities(arr, bd.phi, bd.efn, bd.efp, statistics)
    assert np.array_equal(bd.n, n) and np.array_equal(bd.p, p)


def test_exhausted_line_search_returns_densities_at_the_final_potential(
        reference_stack, reference_mesh, monkeypatch):
    """When all 30 halvings are rejected the potential is not the last
    trial, so its densities must be evaluated afresh."""
    arr = build_device_arrays(reference_stack, reference_mesh)
    phi_n = neutral_potential(arr)
    ef = np.zeros(reference_mesh.nodes.size)
    real = electrostatics._poisson_residual
    calls = []

    def reject_every_trial(*args):
        r, *rest = real(*args)
        calls.append(1)
        return (r if len(calls) == 1 else r + 1e300, *rest)

    monkeypatch.setattr(electrostatics, "_poisson_residual", reject_every_trial)
    monkeypatch.setattr(electrostatics, "NEWTON_MAX_ITERATIONS", 1)
    phi, n, p, history, ok, _ = _solve_poisson(arr, ef, ef, (phi_n[0], phi_n[-1]),
                                               phi_n, "fermi")
    assert len(calls) == 1 + 30 + 1 and not ok and len(history) == 1
    assert not np.array_equal(phi, phi_n)
    n_ref, p_ref = carrier_densities(arr, phi, ef, ef)
    assert np.array_equal(n, n_ref) and np.array_equal(p, p_ref)


def _random_tridiagonal(rng, size):
    lower = rng.uniform(-1.0, 1.0, size - 1)
    upper = rng.uniform(-1.0, 1.0, size - 1)
    margin = rng.uniform(0.1, 1.0, size)
    diag = np.abs(np.r_[0.0, lower]) + np.abs(np.r_[upper, 0.0]) + margin
    diag *= rng.choice([-1.0, 1.0], size)
    rhs = rng.normal(size=size) * 10.0 ** rng.uniform(-5.0, 5.0, size)
    return lower, diag, upper, rhs


def test_tridiag_solve_matches_solve_banded_bit_for_bit():
    rng = np.random.default_rng(5)
    for size in (2, 3, 17, 1628):
        lower, diag, upper, rhs = _random_tridiagonal(rng, size)
        inputs = [a.copy() for a in (lower, diag, upper, rhs)]
        ab = np.zeros((3, size))
        ab[0, 1:], ab[1], ab[2, :-1] = upper, diag, lower
        x = _tridiag_solve(lower, diag, upper, rhs)
        assert np.array_equal(x, solve_banded((1, 1), ab, rhs))
        assert all(np.array_equal(a, b) for a, b in zip(inputs, (lower, diag, upper, rhs)))


def test_loaded_lapack_matches_scipy_linalg_lapack_bit_for_bit():
    """The routines loaded from scipy's _flapack file give what
    scipy.linalg.lapack's give, bit for bit, also with scipy.linalg imported
    in the same process, as a script that uses scipy beside dotdiode may."""
    from scipy.linalg import lapack
    rng = np.random.default_rng(7)
    kl, ku, size = 4, 5, 64
    ab = np.zeros((2 * kl + ku + 1, size))
    ab[kl:] = rng.normal(size=(kl + ku + 1, size))
    rhs = rng.normal(size=(size, 1))
    solved = []
    for trf, trs in ((transport.dgbtrf, transport.dgbtrs), (lapack.dgbtrf, lapack.dgbtrs)):
        lu, piv, info = trf(ab.copy(), kl, ku)
        x, info_trs = trs(lu, kl, ku, rhs, piv)
        solved.append((lu, piv, x, info, info_trs))
    assert all(np.array_equal(a, b) for a, b in zip(*solved))
    assert solved[0][3:] == (0, 0)
    row, col = np.indices((size, size))
    dense = np.zeros((size, size))
    inside = (row - col <= kl) & (col - row <= ku)
    dense[inside] = ab[(kl + ku + row - col)[inside], col[inside]]
    np.testing.assert_allclose(dense @ solved[0][2], rhs, atol=1e-9)
    lower, diag, upper, b = _random_tridiagonal(rng, 33)
    assert all(np.array_equal(x, y) for x, y in zip(electrostatics.dgtsv(lower, diag, upper, b),
                                                    lapack.dgtsv(lower, diag, upper, b)))


def test_tridiag_solve_rejects_nonfinite_input_and_singular_matrix():
    rng = np.random.default_rng(6)
    for which in range(4):
        args = list(_random_tridiagonal(rng, 8))
        args[which][1] = np.nan
        with pytest.raises(ValueError):
            _tridiag_solve(*args)
    lower, diag, upper, rhs = _random_tridiagonal(rng, 8)
    lower[0] = diag[0] = 0.0                 # first column all zero
    with pytest.raises(LinAlgError):
        _tridiag_solve(lower, diag, upper, rhs)
