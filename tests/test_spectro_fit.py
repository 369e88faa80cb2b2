from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dotdiode.constants import HC_EV_NM
from dotdiode import dataio, spectro_fit as sf

GOLDEN = Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# peak fitting

def test_noiseless_lorentzian_recovered_exactly():
    spec = sf.synth_spectrum(np.linspace(1529.5, 1531.1, 801),
                             [(1530.3, 0.05, 1000.0)], background=10.0)
    accepted, discarded = sf.fit_peaks(spec)
    assert not discarded
    peak = accepted[0]
    assert peak.converged
    assert peak.center_nm == pytest.approx(1530.3, rel=1e-6)
    assert peak.fwhm_nm == pytest.approx(0.05, rel=1e-6)
    assert peak.amplitude == pytest.approx(1000.0, rel=1e-6)
    assert peak.background == pytest.approx(10.0, rel=1e-6)


def test_snr_just_below_gate_is_discarded():
    spec = sf.synth_spectrum(np.linspace(1529.5, 1531.1, 801),
                             [(1530.3, 0.05, 490.0)], background=100.0)
    accepted, discarded = sf.fit_peaks(spec, snr_gate=5.0)
    assert not accepted
    assert len(discarded) == 1
    assert discarded[0].snr == pytest.approx(4.9, rel=1e-6)


def test_three_peak_spectrum_with_noise_against_grid_search():
    truth = [(1529.6, 0.05, 900.0), (1530.3, 0.05, 1500.0), (1531.2, 0.06, 700.0)]
    wl = np.linspace(1528.8, 1532.0, 1601)
    spec = sf.synth_spectrum(wl, truth, background=30.0, seed=77)
    accepted, _ = sf.fit_peaks(spec, n_peaks=3, snr_gate=5.0)
    assert len(accepted) == 3
    for peak, (c_true, w_true, a_true) in zip(accepted, truth):
        assert abs(peak.center_nm - c_true) < 3.0 * max(peak.uncertainties["center_nm"],
                                                        1e-6)
        # dense grid-search oracle over this peak's center position
        candidates = np.linspace(c_true - 0.05, c_true + 0.05, 501)
        i_peak = truth.index((c_true, w_true, a_true))
        best_sse, best_c = np.inf, None
        for cc in candidates:
            model = np.full(wl.shape, 30.0)
            for k, (c2, w2, a2) in enumerate(truth):
                model += sf.lorentzian_profile(wl, cc if k == i_peak else c2, w2, a2)
            s = float(np.sum((spec.counts - model) ** 2))
            if s < best_sse:
                best_sse, best_c = s, cc
        assert abs(peak.center_nm - best_c) < 3.0 * peak.uncertainties["center_nm"] + \
            (candidates[1] - candidates[0])


def test_amplitude_scale_equivariance():
    wl = np.linspace(1529.5, 1531.1, 801)
    spec = sf.synth_spectrum(wl, [(1530.3, 0.05, 1000.0)], background=10.0)
    scaled = sf.Spectrum(wavelength_nm=wl, counts=spec.counts * 37.5)
    a1, _ = sf.fit_peaks(spec)
    a2, _ = sf.fit_peaks(scaled)
    assert a2[0].center_nm == pytest.approx(a1[0].center_nm, abs=1e-9)
    assert a2[0].fwhm_nm == pytest.approx(a1[0].fwhm_nm, abs=1e-9)
    assert a2[0].amplitude == pytest.approx(37.5 * a1[0].amplitude, rel=1e-9)


def test_gaussian_and_voigt_shapes_supported():
    wl = np.linspace(1529.5, 1531.1, 801)
    sigma = 0.05 / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    counts = 10.0 + 800.0 * np.exp(-0.5 * ((wl - 1530.3) / sigma) ** 2)
    spec = sf.Spectrum(wavelength_nm=wl, counts=counts)
    accepted, _ = sf.fit_peaks(spec, shape="gaussian")
    assert accepted[0].center_nm == pytest.approx(1530.3, abs=1e-6)
    accepted_v, _ = sf.fit_peaks(spec, shape="voigt")
    assert accepted_v[0].center_nm == pytest.approx(1530.3, abs=1e-3)


def test_too_few_samples_rejected():
    with pytest.raises(sf.InsufficientDataError):
        sf.fit_peaks(sf.Spectrum(wavelength_nm=np.linspace(0, 1, 5),
                                 counts=np.ones(5)))


def test_analytic_jacobian_matches_finite_differences():
    x = np.linspace(1529.0, 1532.0, 400)
    theta = np.array([12.0, 900.0, 1530.2, 0.06, 400.0, 1531.0, 0.08])
    # characteristic scale of each parameter's effect on the model; the
    # centers vary the model on the linewidth scale, not their own value
    char = np.array([12.0, 900.0, 0.06, 0.06, 400.0, 0.08, 0.08])
    jac = sf._multi_lorentz_jacobian(x, theta)
    for j in range(theta.size):
        h = 6e-6 * char[j]           # cube-root-of-eps step
        tp, tm = theta.copy(), theta.copy()
        tp[j] += h
        tm[j] -= h
        fd = (sf._multi_peak_model(x, tp, "lorentzian")
              - sf._multi_peak_model(x, tm, "lorentzian")) / (2.0 * h)
        scale = np.max(np.abs(fd)) or 1.0
        assert np.max(np.abs(jac[:, j] - fd)) / scale < 1e-6


# ---------------------------------------------------------------------------
# fine structure

def test_fss_round_trip_with_noise():
    series = sf.synth_polarization_series(1530.3, 20.0, np.linspace(0, 330, 12),
                                          theta0_deg=25.0, seed=5)
    result = sf.extract_fss(series)
    assert abs(result.delta_ueV - 20.0) < 0.5
    assert result.phase_defined
    assert abs((result.theta0_deg - 25.0 + 90.0) % 180.0 - 90.0) < 3.0


def test_trion_series_consistent_with_zero():
    series = sf.synth_polarization_series(1535.4, 0.0, np.linspace(0, 330, 12), seed=6)
    result = sf.extract_fss(series)
    assert result.delta_ueV < max(2.0 * result.delta_err_ueV, 0.5)
    assert not result.phase_defined


def test_constant_series_gives_zero_and_undefined_phase():
    series = sf.synth_polarization_series(1530.3, 0.0, np.linspace(0, 330, 12))
    result = sf.extract_fss(series)
    assert result.delta_ueV == pytest.approx(0.0, abs=1e-6)
    assert not result.phase_defined


def test_minmax_estimator_agrees_with_cosine_fit_on_dense_series():
    series = sf.synth_polarization_series(1530.3, 30.0, np.linspace(0, 348, 30),
                                          seed=8, amplitude=4000.0)
    result = sf.extract_fss(series)
    # min-max sees the full swing delta (plus noise); 2 sigma agreement
    assert abs(result.minmax_ueV - result.delta_ueV) < max(
        2.0 * result.delta_err_ueV * np.sqrt(2.0), 0.6)


def test_partial_series_error_lists_angles():
    series = sf.synth_polarization_series(1530.3, 10.0, np.linspace(0, 330, 12), seed=4)
    # blank out the peak at two angles
    broken = []
    for k, spec in enumerate(series):
        if k in (3, 7):
            flat = sf.Spectrum(wavelength_nm=spec.wavelength_nm,
                               counts=np.zeros_like(spec.counts),
                               polarizer_angle_deg=spec.polarizer_angle_deg)
            broken.append(flat)
        else:
            broken.append(spec)
    with pytest.raises(sf.PartialSeriesError) as err:
        sf.extract_fss(broken)
    assert len(err.value.angles) == 2


def test_too_few_angles_rejected():
    series = sf.synth_polarization_series(1530.3, 10.0, np.linspace(0, 300, 6))
    with pytest.raises(sf.InsufficientDataError):
        sf.extract_fss(series)


# ---------------------------------------------------------------------------
# power law

def test_exact_linear_power_dependence():
    p, i = sf.synth_power_series(1.0, np.geomspace(5, 360, 12))
    fit = sf.fit_power_law(p, i)
    assert fit.slope == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("slope", [0.78, 0.88, 1.51])
def test_noisy_round_trip_within_three_sigma(slope):
    p, i = sf.synth_power_series(slope, np.geomspace(5, 360, 12),
                                 noise_frac=0.05, seed=int(slope * 100))
    fit = sf.fit_power_law(p, i)
    assert abs(fit.slope - slope) < 3.0 * fit.stderr


def test_biexciton_to_exciton_slope_ratio():
    p1, i1 = sf.synth_power_series(0.88, np.geomspace(5, 360, 12), noise_frac=0.05,
                                   seed=11)
    p2, i2 = sf.synth_power_series(1.51, np.geomspace(5, 360, 12), noise_frac=0.05,
                                   seed=12)
    ratio = sf.fit_power_law(p2, i2).slope / sf.fit_power_law(p1, i1).slope
    assert 1.6 <= ratio <= 1.9


def test_saturation_cutoff_excludes_the_flat_region():
    p, i = sf.synth_power_series(0.88, np.geomspace(5, 360, 14), p_sat_uW=120.0)
    auto = sf.fit_power_law(p, i)
    assert auto.cutoff_uW < p[-1]
    assert auto.n_used < p.size
    assert auto.slope == pytest.approx(0.88, abs=0.06)
    # without saturation the whole range is used
    p2, i2 = sf.synth_power_series(0.88, np.geomspace(5, 360, 14))
    full = sf.fit_power_law(p2, i2)
    assert full.n_used == p2.size
    assert full.slope == pytest.approx(0.88, abs=1e-9)


def test_automatic_cutoff_finds_the_saturation_power_in_noisy_series():
    # hard saturation at 10 uW; a single noisy interval must not end the
    # fit range early
    rng = np.random.default_rng(20240)
    cutoffs = []
    for _ in range(200):
        p, i = sf.synth_power_series(rng.uniform(0.8, 1.6), np.geomspace(0.01, 100.0, 60),
                                     noise_frac=0.02, p_sat_uW=10.0,
                                     seed=int(rng.integers(2**31)))
        cutoffs.append(sf.fit_power_law(p, i).cutoff_uW)
    assert 5.0 <= min(cutoffs) and max(cutoffs) <= 20.0


def test_insufficient_points_below_cutoff():
    p, i = sf.synth_power_series(1.0, np.geomspace(5, 360, 12))
    with pytest.raises(sf.InsufficientDataError):
        sf.fit_power_law(p, i, saturation_cutoff=6.0)


# ---------------------------------------------------------------------------
# photon correlation

def test_calibrated_instrument_hits_raw_minimum():
    sigma = sf.calibrate_g2_instrument(0.04, 2.2, 0.256, 0.18)
    assert sf.g2_model(0.0, 0.04, 2.2, sigma, 0.256) == pytest.approx(0.18, abs=1e-9)


def test_deconvolution_recovers_true_dip():
    sigma = sf.calibrate_g2_instrument(0.04, 2.2, 0.256, 0.18)
    trace = sf.synth_g2_trace(0.04, 2.2, sigma, 0.256, plateau_counts=1000.0, seed=11)
    fit = sf.fit_g2(trace)
    assert fit.converged
    assert 0.16 <= fit.parameters["g0_raw"] <= 0.20
    assert abs(fit.parameters["g0_deconvolved"] - 0.04) < 0.02


def test_zero_irf_round_trip():
    trace = sf.synth_g2_trace(0.10, 2.2, 0.0, 0.0, plateau_counts=5000.0, seed=3)
    fit = sf.fit_g2(trace)
    assert abs(fit.parameters["g0_raw"] - 0.10) < 0.01 + 3.0 / np.sqrt(5000.0)
    assert abs(fit.parameters["g0_deconvolved"] - 0.10) < 0.01


def test_coherent_source_flags_tau_unidentifiable():
    trace = sf.synth_g2_trace(1.0, 2.2, 0.0, 0.256, plateau_counts=2000.0, seed=4)
    fit = sf.fit_g2(trace)
    assert fit.parameters["g0_deconvolved"] == pytest.approx(1.0, abs=0.02)
    assert not fit.flags["tau_c_identifiable"]


@settings(deadline=None, max_examples=15)
@given(st.floats(min_value=0.0, max_value=0.6),
       st.floats(min_value=0.8, max_value=4.0),
       st.floats(min_value=0.05, max_value=0.8),
       st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=0.5)))
def test_deconvolved_dip_never_above_raw_minimum(g0, tau_c, sigma, bin_w):
    trace = sf.synth_g2_trace(g0, tau_c, sigma, bin_w, tau_max_ns=25.0)
    fit = sf.fit_g2(trace)
    assert fit.parameters["g0_deconvolved"] <= fit.parameters["g0_raw"] + 1e-6


def test_missing_plateau_raises():
    trace = sf.synth_g2_trace(0.1, 5.0, 0.0, 0.0, tau_max_ns=8.0)
    with pytest.raises(sf.NormalizationError):
        sf.fit_g2(trace)


# ---------------------------------------------------------------------------
# lifetime

def test_single_exponential_collapses_with_flag():
    trace = sf.synth_decay_trace([(2.2, 1.0)], seed=9)
    fit = sf.fit_lifetime(trace)
    assert fit.flags["degenerate"]
    assert fit.parameters["principal_tau_ns"] == pytest.approx(2.2, abs=0.05)


def test_biexponential_round_trip_within_three_sigma():
    trace = sf.synth_decay_trace([(0.4, 0.3), (2.2, 0.7)], seed=10)
    fit = sf.fit_lifetime(trace)
    assert not fit.flags["degenerate"]
    assert abs(fit.parameters["tau1_ns"] - 0.4) < 3.0 * fit.uncertainties["tau1_ns"]
    assert abs(fit.parameters["tau2_ns"] - 2.2) < 3.0 * fit.uncertainties["tau2_ns"]
    assert fit.parameters["principal_tau_ns"] == fit.parameters["tau2_ns"]
    assert fit.flags["chi2_single"] > fit.flags["chi2_biexp"]


def test_biexponential_fit_is_stationary_on_the_golden_decay():
    """At the returned (A1, tau1, A2, tau2) the gradient J^T r of the full
    four-parameter residual vanishes, at the second pass's weights: those of
    the first pass's model, refitted here on the full model by scipy."""
    from scipy.optimize import least_squares

    cols, _ = dataio.read_table(GOLDEN / "fit_inputs" / "decay.csv")
    t, y = cols["time_ns"] - cols["time_ns"][0], cols["counts"]
    fit = sf.fit_lifetime(sf.DecayTrace(time_ns=cols["time_ns"], counts=y))
    theta = np.array([fit.parameters[k] for k in ("A1", "tau1_ns", "A2", "tau2_ns")])

    def model(theta):
        a1, tau1, a2, tau2 = theta
        return a1 * np.exp(-t / tau1) + a2 * np.exp(-t / tau2)

    def jac(theta):
        a1, tau1, a2, tau2 = theta
        e1, e2 = np.exp(-t / tau1), np.exp(-t / tau2)
        return np.column_stack([e1, a1 * t / tau1**2 * e1, e2, a2 * t / tau2**2 * e2])

    sigma = np.sqrt(np.maximum(y, 1.0))
    first = least_squares(lambda th: (model(th) - y) / sigma, theta,
                          jac=lambda th: jac(th) / sigma[:, None], method="lm",
                          xtol=1e-15, ftol=1e-15, gtol=1e-15)
    w = 1.0 / np.sqrt(np.maximum(model(first.x), 1.0))
    r, j = (model(theta) - y) * w, jac(theta) * w[:, None]
    assert np.linalg.norm(j.T @ r) < 1e-6 * np.linalg.norm(j) * np.linalg.norm(r)


def test_decay_on_a_flat_background_fits_without_overflow():
    """A constant background acts as a second decay of unbounded lifetime:
    the search runs tau2 out to where ln tau is clipped, with no overflow
    warning, and the fit converges and collapses to one exponential."""
    trace = sf.synth_decay_trace([(2.2, 1.0)], peak_counts=500.0)
    counts = np.random.default_rng(4).poisson(trace.counts + 3.0).astype(float)
    fit = sf.fit_lifetime(sf.DecayTrace(time_ns=trace.time_ns, counts=counts))
    assert fit.converged and fit.flags["degenerate"]
    assert fit.parameters["tau2_ns"] > 1e100


def test_flat_trace_raises_insufficient_decay():
    trace = sf.DecayTrace(time_ns=np.linspace(0.0, 20.0, 200),
                          counts=np.full(200, 400.0))
    with pytest.raises(sf.InsufficientDecayError):
        sf.fit_lifetime(trace)


# ---------------------------------------------------------------------------
# the weighted least-squares core

_RNG = np.random.default_rng(5)
_DESIGN = _RNG.normal(size=(40, 3))
_LINEAR_DATA = _DESIGN @ [1.0, -2.0, 0.5] + 0.1 * _RNG.normal(size=40)


def _linear_fit(design):
    x, cost, _, jac = sf._weighted_fit(lambda theta: design @ theta - _LINEAR_DATA,
                                       np.zeros(design.shape[1]), jac=lambda theta: design)
    return (x, *sf._covariance(jac(x), cost))


def test_core_covariance_of_a_full_rank_linear_fit_is_chi2_inv_normal_matrix():
    x, cov, err, chi2 = _linear_fit(_DESIGN)
    resid = _DESIGN @ x - _LINEAR_DATA
    assert chi2 == pytest.approx(resid @ resid / (40 - 3), rel=1e-12)
    expected = chi2 * np.linalg.inv(_DESIGN.T @ _DESIGN)
    np.testing.assert_allclose(cov, expected, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(err, np.sqrt(np.diag(expected)), rtol=1e-12, atol=0.0)


def test_core_drops_the_null_direction_of_a_duplicated_column():
    """Parameters 0 and 3 multiply the same column, so only their sum is
    constrained: their difference gets no variance, each gets a quarter of
    the sum's, and the other parameters keep their full-rank covariance."""
    design = np.column_stack([_DESIGN, _DESIGN[:, 0]])
    _, cov, err, chi2 = _linear_fit(design)
    assert np.all(np.isfinite(err))
    full = chi2 * np.linalg.inv(_DESIGN.T @ _DESIGN)
    np.testing.assert_allclose(cov[1:3, 1:3], full[1:3, 1:3], rtol=1e-9)
    np.testing.assert_allclose(np.diag(cov)[[0, 3]], full[0, 0] / 4.0, rtol=1e-9)
    difference = np.array([1.0, 0.0, 0.0, -1.0])
    assert abs(difference @ cov @ difference) < 1e-12 * np.trace(cov)


def _peak_problem(shape, max_nfev=20000):
    """fit_peaks' residual (and, for the Lorentzian, its Jacobian) on two
    seeded lines, from start values a little off the truth."""
    wl = np.linspace(1529.5, 1531.5, 401)
    y = sf.synth_spectrum(wl, [(1530.3, 0.05, 300.0), (1530.9, 0.08, 150.0)],
                          background=10.0, seed=3).counts
    sigma = np.sqrt(np.maximum(y, 1.0))
    jac = ((lambda th: sf._multi_lorentz_jacobian(wl, th) / sigma[:, None])
           if shape == "lorentzian" else None)
    return ((lambda th: (sf._multi_peak_model(wl, th, shape) - y) / sigma),
            [10.0, 250.0, 1530.31, 0.06, 120.0, 1530.89, 0.07], jac,
            {"xtol": 1e-12, "ftol": 1e-12, "gtol": 1e-12, "max_nfev": max_nfev})


def _g2_problem():
    """fit_g2's residual in (g0, ln tau_c, ln norm) on a seeded binned trace;
    lm stops on the gradient test, right after a Jacobian at x."""
    trace = sf.synth_g2_trace(0.2, 1.5, 0.3, 0.256, seed=7)
    y = trace.coincidences / 1000.0
    sigma = np.sqrt(np.maximum(trace.coincidences, 1.0)) / 1000.0
    return ((lambda th: (sf.g2_model(trace.delay_ns, th[0], np.exp(th[1]), 0.3, 0.256,
                                     np.exp(th[2])) - y) / sigma),
            [0.3, 0.0, 0.0], None, {"xtol": 1e-13, "ftol": 1e-13, "max_nfev": 5000})


_LM_PROBLEMS = {
    "lorentzian-analytic": lambda: _peak_problem("lorentzian"),
    "voigt-difference": lambda: _peak_problem("voigt"),
    "voigt-out-of-budget": lambda: _peak_problem("voigt", max_nfev=3),
    "g2-difference": _g2_problem,
}


@pytest.mark.parametrize("problem", _LM_PROBLEMS)
def test_weighted_fit_matches_scipy_least_squares_lm_bit_for_bit(problem):
    """_weighted_fit calls scipy's private MINPACK binding as
    least_squares(method="lm") calls it, and differences and reuses residuals
    as it does: x, cost, the final Jacobian and success agree bit for bit, with
    as many residual evaluations, so a change to that private call or to
    scipy's differencing shows here."""
    from scipy.optimize import least_squares

    residual, start, jac, options = _LM_PROBLEMS[problem]()
    calls = []

    def counted(theta):
        calls.append(theta)
        return residual(theta)

    x, cost, success, jac_at = sf._weighted_fit(counted, start, jac, **options)
    final_jac, evaluations = jac_at(x), len(calls)
    ref = least_squares(counted, start, jac=jac or "2-point", method="lm", **options)
    assert np.array_equal(x, ref.x)
    assert cost == ref.cost
    assert np.array_equal(final_jac, ref.jac)
    assert success == ref.success == (problem != "voigt-out-of-budget")
    assert evaluations == len(calls) - evaluations


def test_loaded_erfcx_is_scipy_special_erfcx():
    import scipy.special

    loaded = sf._load_scipy_extension("special", "_special_ufuncs", "special-function")
    assert loaded.erfcx is scipy.special.erfcx


# ---------------------------------------------------------------------------
# round-trip coverage: every fitter recovers truth within 3 sigma in >= 95%
# of seeded trials at ~1e3-count noise

def test_peak_center_coverage():
    wl = np.linspace(1529.8, 1530.8, 501)
    hits = 0
    trials = 100
    for seed in range(trials):
        spec = sf.synth_spectrum(wl, [(1530.3, 0.05, 1000.0)], background=10.0,
                                 seed=1000 + seed)
        accepted, discarded = sf.fit_peaks(spec)
        peak = (accepted + discarded)[0]
        if abs(peak.center_nm - 1530.3) < 3.0 * peak.uncertainties["center_nm"]:
            hits += 1
    assert hits >= 95


def test_power_slope_coverage():
    hits = 0
    trials = 100
    for seed in range(trials):
        p, i = sf.synth_power_series(0.88, np.geomspace(5, 360, 12),
                                     noise_frac=0.03, seed=2000 + seed)
        fit = sf.fit_power_law(p, i)
        if abs(fit.slope - 0.88) < 3.0 * fit.stderr:
            hits += 1
    assert hits >= 95


def test_g2_coverage():
    hits = 0
    trials = 100
    for seed in range(trials):
        trace = sf.synth_g2_trace(0.1, 2.2, 0.3, 0.256, plateau_counts=1000.0,
                                  seed=3000 + seed)
        fit = sf.fit_g2(trace)
        err = max(fit.uncertainties["g0_deconvolved"], 1e-3)
        if abs(fit.parameters["g0_deconvolved"] - 0.1) < 3.0 * err:
            hits += 1
    assert hits >= 95


def test_lifetime_coverage():
    hits = 0
    trials = 100
    for seed in range(trials):
        trace = sf.synth_decay_trace([(2.2, 1.0)], peak_counts=1000.0,
                                     seed=4000 + seed)
        fit = sf.fit_lifetime(trace)
        assert fit.converged, seed
        if abs(fit.parameters["principal_tau_ns"] - 2.2) < 0.1:
            hits += 1
    assert hits >= 95
