"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing a PASS line when it holds. Run with

    pytest tests/test_acceptance.py -v -s
"""

import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from dotdiode import dataio
from dotdiode.constants import Q_E, thermal_voltage
from dotdiode.device import Layer, LayerStack, build_mesh
from dotdiode.electrostatics import (solve_equilibrium, solve_bias,
                                     fermi_half, field_lever_arm)
from dotdiode.materials import lookup_material, mobility_at
from dotdiode.qd_model import (load_reference_lines, load_charge_ladder,
                               tuning_range, stark_wavelength, fss_at,
                               occupancy_at, synth_emission_map, ZERO_BACKGROUND)
from dotdiode.transport import (solve_drift_diffusion, iv_sweep,
                                detailed_balance_floor)
from dotdiode import spectro_fit as sf
from dotdiode.cli import main as cli_main

GOLDEN = Path(__file__).parent / "golden"


def _announce(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\n[acceptance] criterion {number} ({name}): PASS{suffix}")


def test_criterion_01_electrostatics_oracles():
    t0 = time.time()
    slab = LayerStack(layers=(Layer("InP", 400.0, donor_cm3=1e16),))
    mesh = build_mesh(slab, 2.0, 0.5, 5.0)
    flat = solve_equilibrium(slab, mesh)
    assert flat.converged
    assert np.ptp(flat.Ec) < 1e-5      # max |dEc| < 10 ueV

    junction = LayerStack(layers=(Layer("InP", 500.0, donor_cm3=1e18),
                                  Layer("InP", 500.0, donor_cm3=1e16)))
    jmesh = build_mesh(junction, 5.0, 0.5, 20.0)
    bd = solve_equilibrium(junction, jmesh, "boltzmann")
    x = jmesh.nodes
    vbi = float(np.mean(bd.phi[x < 50.0]) - np.mean(bd.phi[x > 950.0]))
    analytic = thermal_voltage(300.0) * np.log(1e18 / 1e16)
    assert abs(vbi - analytic) < 2e-3
    runtime = time.time() - t0
    assert runtime < 5.0
    _announce(1, "electrostatics oracles",
              f"Vbi dev {abs(vbi - analytic) * 1e3:.3f} mV, {runtime:.1f} s")


def test_criterion_02_mesh_convergence(reference_stack):
    t0 = time.time()
    coarse = build_mesh(reference_stack)               # defaults
    fine = build_mesh(reference_stack, 1.0, 0.0625, 10.0)   # halved spacings
    ec_coarse = solve_equilibrium(reference_stack, coarse).Ec
    ec_fine = solve_equilibrium(reference_stack, fine).Ec
    interp = np.interp(coarse.nodes, fine.nodes, ec_fine)
    worst = float(np.max(np.abs(interp - ec_coarse)))
    runtime = time.time() - t0
    assert worst < 1e-3
    assert runtime < 30.0
    _announce(2, "mesh convergence", f"max dEc {worst * 1e3:.3f} meV, {runtime:.1f} s")


def test_criterion_03_band_diagram_reproduction(reference_stack, reference_mesh,
                                                tmp_path):
    x = reference_mesh.nodes
    b1 = (x >= 320.0) & (x <= 390.0)
    b2 = (x >= 436.0) & (x <= 506.0)
    i0 = int(np.argmin(np.abs(x - 300.0)))
    i1 = int(np.argmin(np.abs(x - 541.0)))

    def flank(position):
        return int(np.argmin(np.abs(x - position)))

    equilibrium = solve_bias(reference_stack, reference_mesh, 0.0)
    drops = []
    worst_gold = 0.0
    for bias in [-0.5, 0.0, 0.5, 1.0]:
        bd = solve_bias(reference_stack, reference_mesh, bias)
        assert bd.converged
        # each blocking barrier is locally prominent against its flanks
        assert bd.Ec[b1].max() > max(bd.Ec[flank(315.0)], bd.Ec[flank(395.0)]) + 0.1
        assert bd.Ec[b2].max() > max(bd.Ec[flank(431.0)], bd.Ec[flank(511.0)]) + 0.1
        drops.append(bd.phi[i1] - bd.phi[i0])
        shift = (bd.phi[-1] - bd.phi[0]) - (equilibrium.phi[-1] - equilibrium.phi[0])
        assert shift == pytest.approx(bias, abs=1e-12)

        name = f"band_{bias:+.3f}V.csv".replace("+", "p").replace("-", "m")
        bd.to_csv(tmp_path / name)
        produced, _ = dataio.read_table(tmp_path / name)
        stored, _ = dataio.read_table(GOLDEN / name)
        for col in ("Ec_eV", "Ev_eV", "phi_V"):
            worst_gold = max(worst_gold,
                             float(np.max(np.abs(produced[col] - stored[col]))))
        assert worst_gold < 1e-9
    assert np.all(np.diff(drops) > 0)
    _announce(3, "band diagrams vs golden files",
              f"max golden diff {worst_gold:.2e} eV")


def test_criterion_04_fermi_integral_grid():
    t0 = time.time()

    def oracle(eta):
        def integrand(e):
            with np.errstate(over="ignore"):     # exp overflow: the tail is 0
                return np.sqrt(e) / (1.0 + np.exp(e - eta))
        if eta > 0:
            v = quad(integrand, 0.0, eta)[0] + quad(integrand, eta, np.inf)[0]
        else:
            v = quad(integrand, 0.0, np.inf)[0]
        return 2.0 / np.sqrt(np.pi) * v

    grid = np.linspace(-30.0, 30.0, 601)
    worst = 0.0
    for eta in grid:
        exact = oracle(float(eta))
        worst = max(worst, abs(fermi_half(float(eta)) - exact) / exact)
    runtime = time.time() - t0
    assert worst < 5e-3
    assert runtime < 5.0
    _announce(4, "Fermi integral approximation",
              f"max rel err {worst * 100:.3f}%, {runtime:.1f} s")


def test_criterion_05_transport_properties(reference_stack, reference_mesh):
    slab = LayerStack(layers=(Layer("InP", 400.0, donor_cm3=1e16),))
    smesh = build_mesh(slab, 2.0, 0.5, 5.0)
    _, ohmic, _ = solve_drift_diffusion(slab, smesh, 0.005)
    m = lookup_material("InP", 300.0)
    mu = mobility_at(m.mobility_e, 1e16, 300.0, m.mobility_T_exponent)
    analytic = Q_E * 1e16 * mu * 0.005 / 400e-7
    assert ohmic.converged
    assert abs(ohmic.current_density / analytic - 1.0) < 0.01

    _, dark, _ = solve_drift_diffusion(reference_stack, reference_mesh, 0.0)
    floor = detailed_balance_floor(reference_stack, reference_mesh)
    assert dark.converged
    assert abs(dark.current_density) < floor

    biases = [round(-1.0 + 0.25 * k, 2) for k in range(13)]
    curve = iv_sweep(reference_stack, reference_mesh, biases)
    worst = 0.0
    for pt in curve.points:
        assert pt.converged, f"sweep point {pt.bias} V did not converge"
        if pt.bias != 0.0:
            assert pt.continuity_error < 1e-6
            worst = max(worst, pt.continuity_error)
    _announce(5, "transport properties",
              f"ohmic dev {abs(ohmic.current_density / analytic - 1.0):.2e}, "
              f"|J(0)| {abs(dark.current_density):.1e} < floor {floor:.1e}, "
              f"max continuity {worst:.1e}")


def test_criterion_06_stark_calibration():
    lines = {l.species: l for l in load_reference_lines()}
    targets = {"X0": 2.40, "XX": 0.82, "Xminus": 1.73}
    worst = 0.0
    for species, target in targets.items():
        span = tuning_range(lines[species], 0.59, 1.96, 240.0)
        # dense-scan oracle
        volts = np.linspace(0.59, 1.96, 10_000)
        lams = stark_wavelength(lines[species],
                                np.array([field_lever_arm(v, 240.0) for v in volts]))
        dense = float(np.max(lams) - np.min(lams))
        assert abs(span - target) < 0.01
        assert abs(dense - target) < 0.01
        worst = max(worst, abs(span - target))
    _announce(6, "Stark calibration", f"max range dev {worst * 1e3:.2f} pm")


def test_criterion_07_fss_model_and_extraction():
    lines = {l.species: l for l in load_reference_lines()}
    model = lines["X0"].fss
    assert fss_at(model, 1.7) == pytest.approx(41.0, abs=1e-9)
    assert fss_at(model, 1.15) == pytest.approx(16.0, abs=1e-9)

    hits = 0
    trials = 0
    for delta in (0.0, 5.0, 16.0, 41.0):
        for k in range(25):
            trials += 1
            series = sf.synth_polarization_series(
                1530.3, delta, np.linspace(0.0, 330.0, 12), theta0_deg=17.0,
                amplitude=1000.0, seed=int(delta * 1000) + k)
            result = sf.extract_fss(series)
            if abs(result.delta_ueV - delta) < 0.5:
                hits += 1
    assert trials == 100
    assert hits >= 95
    _announce(7, "fine-structure model and extraction", f"{hits}/100 within 0.5 ueV")


def test_criterion_08_charge_ladder_and_map():
    ladder = load_charge_ladder()
    assert occupancy_at(ladder, 0.9) == (2, ("X2minus",))
    assert occupancy_at(ladder, 0.97) == (1, ("Xminus",))
    assert occupancy_at(ladder, 1.1) == (1, ("X0", "Xminus"))
    assert occupancy_at(ladder, 1.35) == (0, ("X0",))

    lines = load_reference_lines()
    gate = np.linspace(0.82, 1.38, 15)
    lam = np.linspace(1528.0, 1540.0, 2400)
    emission = synth_emission_map(lines, ladder, gate, lam, linewidth_ueV=30.0,
                                  background=ZERO_BACKGROUND, seed=None)
    for k, v in enumerate(gate):
        _, active = occupancy_at(ladder, v)
        column = emission.intensity[:, k]
        for line in lines:
            lam_c = stark_wavelength(line, field_lever_arm(v, 240.0))
            window = np.abs(lam - lam_c) < 0.05
            present = column[window].max() > 0.5 * line.relative_brightness
            assert present == (line.species in active)
    _announce(8, "charge ladder and emission map")


def test_criterion_09_g2_pipeline():
    sigma = sf.calibrate_g2_instrument(0.04, 2.2, 0.256, 0.18)
    raw_clean = sf.g2_model(0.0, 0.04, 2.2, sigma, 0.256)
    assert abs(raw_clean - 0.18) < 0.01

    trace = sf.synth_g2_trace(0.04, 2.2, sigma, 0.256, plateau_counts=1000.0, seed=11)
    fit = sf.fit_g2(trace)
    assert fit.converged
    assert abs(fit.parameters["g0_deconvolved"] - 0.04) < 0.02

    clean = sf.synth_g2_trace(0.10, 2.2, 0.0, 0.0, plateau_counts=5000.0, seed=3)
    rt = sf.fit_g2(clean)
    assert abs(rt.parameters["g0_deconvolved"] - 0.10) < 0.01
    _announce(9, "photon-correlation pipeline",
              f"raw {fit.parameters['g0_raw']:.3f} -> "
              f"deconvolved {fit.parameters['g0_deconvolved']:.3f}")


def test_criterion_10_lifetime_and_power_fits():
    trace = sf.synth_decay_trace([(0.4, 0.3), (2.2, 0.7)], seed=10)
    fit = sf.fit_lifetime(trace)
    assert abs(fit.parameters["tau2_ns"] - 2.2) < 3.0 * fit.uncertainties["tau2_ns"]

    slopes = {}
    for truth in (0.78, 0.88, 1.51):
        p, i = sf.synth_power_series(truth, np.geomspace(5, 360, 12),
                                     noise_frac=0.05, seed=int(truth * 100))
        res = sf.fit_power_law(p, i)
        assert abs(res.slope - truth) < 3.0 * res.stderr
        slopes[truth] = res.slope
    ratio = slopes[1.51] / slopes[0.88]
    assert 1.6 <= ratio <= 1.9
    _announce(10, "lifetime and power fits",
              f"tau2 {fit.parameters['tau2_ns']:.3f} ns, slope ratio {ratio:.2f}")


def test_criterion_11_cli_determinism(tmp_path):
    runs = {}
    for tag in ("first", "second"):
        base = tmp_path / tag
        assert cli_main(["bandedges", "--bias", "0", "--bias", "0.5",
                         "--out", str(base / "bands")]) == 0
        assert cli_main(["iv", "--vmin", "0.0", "--vmax", "0.5", "--step", "0.5",
                         "--out", str(base / "iv")]) == 0
        assert cli_main(["stark", "--out", str(base / "stark")]) == 0
        assert cli_main(["synthmap", "--seed", "42", "--nv", "9", "--nl", "101",
                         "--out", str(base / "map")]) == 0
        files = sorted(p.relative_to(base) for p in base.rglob("*") if p.is_file())
        runs[tag] = {str(f): (base / f).read_bytes() for f in files}
    assert runs["first"].keys() == runs["second"].keys()
    for name in runs["first"]:
        assert runs["first"][name] == runs["second"][name], f"{name} differs"
    _announce(11, "CLI determinism", f"{len(runs['first'])} files byte-identical")
