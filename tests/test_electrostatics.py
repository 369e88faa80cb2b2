import numpy as np
import pytest

from dotdiode.constants import thermal_voltage
from dotdiode.device import Layer, LayerStack, build_mesh
from dotdiode import electrostatics
from dotdiode.electrostatics import (
    NonConvergenceError, solve_equilibrium, solve_bias,
    field_lever_arm, build_device_arrays,
)
from dotdiode.materials import lookup_material


@pytest.fixture(scope="module")
def equilibrium(reference_stack, reference_mesh):
    return solve_equilibrium(reference_stack, reference_mesh)


def test_uniform_slab_flat_bands():
    stack = LayerStack(layers=(Layer("InP", 400.0, donor_cm3=1e16),))
    mesh = build_mesh(stack, 2.0, 0.5, 5.0)
    bd = solve_equilibrium(stack, mesh)
    assert bd.converged
    assert np.ptp(bd.Ec) < 1e-5          # < 10 ueV band-edge variation
    assert np.max(np.abs(bd.n / 1e16 - 1.0)) < 1e-6


def test_junction_builtin_potential_nondegenerate_branch():
    stack = LayerStack(layers=(Layer("InP", 500.0, donor_cm3=1e18),
                               Layer("InP", 500.0, donor_cm3=1e16)))
    mesh = build_mesh(stack, 5.0, 0.5, 20.0)
    bd = solve_equilibrium(stack, mesh, "boltzmann")
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
        solve_equilibrium(reference_stack, reference_mesh)
    assert len(err.value.residual_history) >= 1


def test_bias_sanity_bound(reference_stack, reference_mesh):
    with pytest.raises(ValueError):
        solve_bias(reference_stack, reference_mesh, 6.0)


def test_csv_export_columns(tmp_path, reference_stack, reference_mesh, equilibrium):
    from dotdiode.dataio import read_table
    path = tmp_path / "band.csv"
    equilibrium.to_csv(path)
    cols, meta = read_table(path)
    assert list(cols) == ["position_nm", "Ec_eV", "Ev_eV", "phi_V", "n_cm3",
                          "p_cm3", "F_Vcm"]
    assert meta["converged"] == "True"
    assert float(meta["bias_V"]) == 0.0
