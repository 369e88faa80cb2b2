"""Fitting suite for optical data: SNR-gated peak fits, polarization-
resolved fine-structure extraction, power-law saturation fits,
IRF-deconvolved photon-correlation fits and biexponential lifetime fits.

Peak shapes default to Lorentzian (CW, lifetime-limited lines); Gaussian
and Voigt profiles are selectable. Single-peak and multi-peak fits use
Levenberg-Marquardt with data-driven initial guesses taken from the
highest residual maxima. Fits never fail silently: results carry an
explicit converged flag and discarded peaks are returned alongside
accepted ones.

Every nonlinear fit (peaks, g2, both lifetime models) runs through one
weighted least-squares core, ``_weighted_fit``: reduced chi^2 = 2 cost /
max(m - n, 1) for m points and n parameters, covariance chi^2 (J^T J)^+ at
the final Jacobian J with singular values below 1e-12 of the largest dropped
(a direction the data do not constrain adds nothing), and standard errors
the square roots of its diagonal.

The photon-correlation model is a single-exponential antibunching dip
1 - (1 - g0) exp(-|tau|/tau_c) convolved with a Gaussian instrument
response and box-averaged over the histogram bin; the analytic
convolution is evaluated through scaled complementary error functions so
it stays finite at large delay. Lifetime fits are biexponential with
Poisson weights and always report the single-exponential comparison fit.

Forward models double as synthetic-data generators, so every fitter can
be validated by round trip against data it generated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import constants

# scipy.optimize and scipy.special are imported inside the functions that
# use them: scipy.optimize is about a third of the import time of the CLI,
# whose solver commands never need either.

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(7)


class PartialSeriesError(ValueError):
    """A polarization series is missing the target peak at some angles."""

    def __init__(self, angles):
        super().__init__(f"no usable peak at polarizer angles {sorted(angles)}")
        self.angles = tuple(sorted(angles))


class InsufficientDataError(ValueError):
    """Too few usable points for the requested fit."""


class InsufficientDecayError(ValueError):
    """A decay trace does not decay enough to constrain lifetimes."""


class NormalizationError(ValueError):
    """A correlation trace has no long-delay plateau to normalize by."""


class TimeScaleError(ValueError):
    """A decay's time axis puts its start lifetimes outside the fitted range."""


def _checked(min_size, **fields):
    """Two named fields, a grid and then its counts (or intensities), as 1D
    float arrays of one length, at least `min_size`. Every value must be
    finite and within +/-2**53, where floats still hold whole counts and
    squares stay far from overflow; counts must be non-negative. A failure
    raises ValueError naming the field, so a bad input stops where it
    enters a fitter."""
    arrays = [np.asarray(values, dtype=float) for values in fields.values()]
    for name, a in zip(fields, arrays):
        if a.ndim != 1 or a.size != arrays[0].size:
            raise ValueError(f"{name} must be a 1D array as long as {next(iter(fields))}")
        if not np.all(np.abs(a) <= 2.0**53):
            raise ValueError(f"{name} must be finite and within +/-2**53")
    if np.any(arrays[1] < 0):
        raise ValueError(f"{list(fields)[1]} must be non-negative")
    if arrays[0].size < min_size:
        raise InsufficientDataError(f"{' and '.join(fields)}: {arrays[0].size} values, "
                                    f"need at least {min_size}")
    return arrays


@dataclass(frozen=True)
class Spectrum:
    wavelength_nm: np.ndarray
    counts: np.ndarray
    power_uW: float | None = None
    gate_V: float | None = None
    polarizer_angle_deg: float | None = None

    def __post_init__(self):
        wl, c = _checked(1, wavelength_nm=self.wavelength_nm, counts=self.counts)
        if np.any(np.diff(wl) <= 0):
            raise ValueError("wavelength grid must be strictly increasing")
        object.__setattr__(self, "wavelength_nm", wl)
        object.__setattr__(self, "counts", c)


@dataclass(frozen=True)
class PeakFit:
    center_nm: float
    fwhm_nm: float
    amplitude: float
    background: float
    snr: float
    uncertainties: dict
    converged: bool
    shape: str = "lorentzian"


@dataclass(frozen=True)
class G2Trace:
    delay_ns: np.ndarray
    coincidences: np.ndarray
    bin_width_ns: float
    irf_sigma_ns: float = 0.0

    def __post_init__(self):
        t, c = _checked(8, delay_ns=self.delay_ns, coincidences=self.coincidences)
        for name in ("bin_width_ns", "irf_sigma_ns"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")
        dt = np.diff(t)
        if np.any(dt <= 0) or np.ptp(dt) > 1e-9 * np.max(dt):
            raise ValueError("delay grid must be uniform and increasing")
        object.__setattr__(self, "delay_ns", t)
        object.__setattr__(self, "coincidences", c)


@dataclass(frozen=True)
class DecayTrace:
    time_ns: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        t, c = _checked(8, time_ns=self.time_ns, counts=self.counts)
        if np.any(np.diff(t) <= 0):
            raise ValueError("time grid must be increasing")
        object.__setattr__(self, "time_ns", t)
        object.__setattr__(self, "counts", c)


@dataclass(frozen=True)
class FitResult:
    """Named parameter estimates with uncertainties and goodness of fit, and
    the fitted model on the input grid in data units."""

    parameters: dict
    uncertainties: dict
    covariance: np.ndarray
    reduced_chi2: float
    converged: bool
    model: np.ndarray
    flags: dict = field(default_factory=dict)


@dataclass(frozen=True)
class FssExtraction:
    delta_ueV: float
    delta_err_ueV: float
    theta0_deg: float
    phase_defined: bool
    minmax_ueV: float
    mean_energy_ueV: float
    energies_ueV: np.ndarray


@dataclass(frozen=True)
class PowerLawFit:
    slope: float
    stderr: float
    intercept: float
    cutoff_uW: float
    n_used: int
    model: np.ndarray           # fitted intensity at each input power, in input order


# ---------------------------------------------------------------------------
# line-shape models

def lorentzian_profile(x, center, fwhm, amplitude):
    hw = 0.5 * fwhm
    return amplitude * hw * hw / ((x - center) ** 2 + hw * hw)


def gaussian_profile(x, center, fwhm, amplitude):
    sigma = fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    return amplitude * np.exp(-0.5 * ((x - center) / sigma) ** 2)


def voigt_profile_peak(x, center, fwhm, amplitude):
    # pseudo-Voigt with equal Gaussian/Lorentzian widths
    return 0.5 * (lorentzian_profile(x, center, fwhm, amplitude)
                  + gaussian_profile(x, center, fwhm, amplitude))


_SHAPES = {
    "lorentzian": lorentzian_profile,
    "gaussian": gaussian_profile,
    "voigt": voigt_profile_peak,
}


def _multi_peak_model(x, params, shape):
    profile = _SHAPES[shape]
    out = np.full(x.shape, params[0])
    for k in range((len(params) - 1) // 3):
        amp, center, fwhm = params[1 + 3 * k: 4 + 3 * k]
        out += profile(x, center, fwhm, amp)
    return out


def peaks_model(x, peaks):
    """Model of one fit_peaks result (accepted plus discarded peaks, which
    share one background), built with the line shape the fit used."""
    params = [peaks[0].background]
    for p in peaks:
        params += [p.amplitude, p.center_nm, p.fwhm_nm]
    return _multi_peak_model(np.asarray(x, dtype=float), params, peaks[0].shape)


def _multi_lorentz_jacobian(x, params):
    """Analytic Jacobian of the Lorentzian multi-peak model."""
    n = (len(params) - 1) // 3
    jac = np.empty((x.size, len(params)))
    jac[:, 0] = 1.0
    for k in range(n):
        amp, center, fwhm = params[1 + 3 * k: 4 + 3 * k]
        hw = 0.5 * fwhm
        d = (x - center) ** 2 + hw * hw
        jac[:, 1 + 3 * k] = hw * hw / d
        jac[:, 2 + 3 * k] = 2.0 * amp * hw * hw * (x - center) / (d * d)
        jac[:, 3 + 3 * k] = amp * hw * (x - center) ** 2 / (d * d)
    return jac


def _weighted_fit(residual, start, **options):
    """scipy.optimize.least_squares on `residual` from `start` with
    `options`: (result, covariance, standard errors, reduced chi^2), as the
    module docstring defines them."""
    from scipy.optimize import least_squares

    res = least_squares(residual, start, **options)
    m, n = res.jac.shape
    chi2 = float(2.0 * res.cost / max(m - n, 1))
    _, s, vt = np.linalg.svd(res.jac, full_matrices=False)
    s = np.where(s > s[0] * 1e-12, s, np.inf)
    cov = (vt.T / (s * s)) @ vt * chi2
    return res, cov, np.sqrt(np.maximum(np.diag(cov), 0.0)), chi2


def _half_max_width(x, residual, i0, grid_step):
    """FWHM estimate from half-maximum crossings around sample i0."""
    half = 0.5 * residual[i0]
    left = i0
    while left > 0 and residual[left] > half:
        left -= 1
    right = i0
    while right < residual.size - 1 and residual[right] > half:
        right += 1
    width = x[right] - x[left]
    return max(width, 3.0 * grid_step)


def fit_peaks(spectrum, n_peaks=1, snr_gate=5.0, shape="lorentzian"):
    """Fit `n_peaks` line profiles plus a constant background.

    Initial guesses take the highest maxima of the running residual; the
    simultaneous Levenberg-Marquardt fit (Poisson-weighted, so parameter
    uncertainties are statistically calibrated) refines all peaks.
    Returns (accepted, discarded): peaks whose fitted signal-to-background
    ratio falls below `snr_gate` land in the discard list.
    """
    if n_peaks < 1:
        raise ValueError("n_peaks must be at least 1")
    if shape not in _SHAPES:
        raise ValueError(f"unknown line shape {shape!r}")
    x = spectrum.wavelength_nm
    y = spectrum.counts
    if x.size < max(8, 5 * n_peaks):
        raise InsufficientDataError(
            f"{x.size} samples is too few for {n_peaks} peak(s)")

    grid_step = float(np.median(np.diff(x)))
    bg0 = float(np.median(y))
    params = [bg0]
    residual = y - bg0
    for _ in range(n_peaks):
        i0 = int(np.argmax(residual))
        amp0 = max(residual[i0], 1e-3 * max(np.ptp(y), 1.0))
        w0 = _half_max_width(x, residual, i0, grid_step)
        params.extend([amp0, x[i0], w0])
        residual = residual - _SHAPES[shape](x, x[i0], w0, amp0)

    sigma = np.sqrt(np.maximum(y, 1.0))
    analytic = ({"jac": lambda theta: _multi_lorentz_jacobian(x, theta) / sigma[:, None]}
                if shape == "lorentzian" else {})
    res, _, sigmas, _ = _weighted_fit(
        lambda theta: (_multi_peak_model(x, theta, shape) - y) / sigma,
        np.asarray(params, dtype=float), method="lm", xtol=1e-12, ftol=1e-12, gtol=1e-12,
        max_nfev=20000, **analytic)
    converged = bool(res.success)

    bg = res.x[0]
    accepted, discarded = [], []
    for k in range(n_peaks):
        amp, center, fwhm = res.x[1 + 3 * k: 4 + 3 * k]
        fwhm = abs(fwhm)
        snr = amp / bg if bg > 0 else math.inf
        peak = PeakFit(
            center_nm=float(center), fwhm_nm=float(fwhm), amplitude=float(amp),
            background=float(bg), snr=float(snr),
            uncertainties={"center_nm": float(sigmas[2 + 3 * k]),
                           "fwhm_nm": float(sigmas[3 + 3 * k]),
                           "amplitude": float(sigmas[1 + 3 * k]),
                           "background": float(sigmas[0])},
            converged=converged, shape=shape)
        (accepted if snr >= snr_gate else discarded).append(peak)
    accepted.sort(key=lambda p: p.center_nm)
    discarded.sort(key=lambda p: p.center_nm)
    return accepted, discarded


# ---------------------------------------------------------------------------
# polarization series / fine structure

def extract_fss(series, snr_gate=0.0):
    """Fine-structure splitting from a polarizer-angle series of spectra.

    Per-angle peak centers are fitted, converted to energy, and fitted to
    E(theta) = E_mean + (delta/2) cos 2(theta - theta0). Returns the
    cosine-fit splitting with its uncertainty and phase, plus the raw
    min-max estimator over the fitted per-angle energies.
    """
    if len(series) < 8:
        raise InsufficientDataError("need at least 8 polarizer angles")
    angles = np.array([s.polarizer_angle_deg for s in series], dtype=float)
    if np.any(np.isnan(angles)):
        raise ValueError("every spectrum needs polarizer_angle_deg metadata")
    if np.ptp(angles) < 180.0:
        raise InsufficientDataError("series must span at least 180 degrees")

    energies = np.empty(angles.size)
    missing = []
    for k, spec in enumerate(series):
        accepted, discarded = fit_peaks(spec, n_peaks=1, snr_gate=snr_gate)
        peaks = accepted or discarded
        peak = peaks[0]
        usable = (peak.converged and peak.amplitude > 0
                  and spec.wavelength_nm[0] < peak.center_nm < spec.wavelength_nm[-1])
        if not usable:
            missing.append(float(angles[k]))
            continue
        energies[k] = 1e6 * constants.HC_EV_NM / peak.center_nm
    if missing:
        raise PartialSeriesError(missing)

    theta = np.deg2rad(angles)
    design = np.column_stack([np.ones_like(theta), np.cos(2 * theta), np.sin(2 * theta)])
    coef, _, _, _ = np.linalg.lstsq(design, energies, rcond=None)
    resid = energies - design @ coef
    dof = max(angles.size - 3, 1)
    s_sq = float(resid @ resid) / dof
    cov = s_sq * np.linalg.inv(design.T @ design)

    a, b = coef[1], coef[2]
    r = math.hypot(a, b)
    delta = 2.0 * r
    if r > 0:
        grad = np.array([0.0, 2.0 * a / r, 2.0 * b / r])
        delta_err = float(np.sqrt(grad @ cov @ grad))
    else:
        delta_err = float(2.0 * np.sqrt(max(cov[1, 1], cov[2, 2])))
    theta0 = 0.5 * math.degrees(math.atan2(b, a))
    phase_defined = delta > max(2.0 * delta_err, 1e-9)
    return FssExtraction(
        delta_ueV=float(delta), delta_err_ueV=delta_err,
        theta0_deg=float(theta0), phase_defined=bool(phase_defined),
        minmax_ueV=float(np.max(energies) - np.min(energies)),
        mean_energy_ueV=float(coef[0]), energies_ueV=energies)


# ---------------------------------------------------------------------------
# power dependence

def fit_power_law(powers_uW, intensities, saturation_cutoff=None):
    """Log-log slope of intensity vs excitation power below saturation.

    With `saturation_cutoff=None` the cutoff is the highest power up to
    which every log-log slope taken over two intervals stays above half the
    low-power slope (the mean of the first three single-interval slopes).
    Two intervals halve the noise of each slope, so one noisy point does not
    end the range early.
    """
    p_in, y = _checked(3, power_uW=powers_uW, intensity=intensities)
    if np.any(p_in <= 0) or np.any(y <= 0):
        raise ValueError("power_uW and intensity must be positive")
    order = np.argsort(p_in)
    p, y = p_in[order], y[order]
    if np.any(np.diff(p) == 0):
        raise ValueError("power_uW values must be distinct")

    if saturation_cutoff is None:
        logp, logy = np.log(p), np.log(y)
        local = np.diff(logy) / np.diff(logp)
        low = np.mean(local[:min(3, local.size)])
        wide = (logy[2:] - logy[:-2]) / (logp[2:] - logp[:-2])
        n_keep = p.size
        for k, s in enumerate(wide):
            if s < 0.5 * low:
                n_keep = k + 1
                break
        saturation_cutoff = p[n_keep - 1]
    keep = p <= saturation_cutoff
    if np.count_nonzero(keep) < 3:
        raise InsufficientDataError(
            f"only {np.count_nonzero(keep)} points below the saturation cutoff")

    logp, logy = np.log(p[keep]), np.log(y[keep])
    (slope, intercept), cov = np.polyfit(logp, logy, 1, cov=True)
    # extrapolated far above the cutoff, the law may leave the float range
    with np.errstate(over="ignore", invalid="ignore"):
        model = np.exp(float(intercept)) * p_in ** float(slope)
    return PowerLawFit(slope=float(slope), stderr=float(np.sqrt(max(cov[0, 0], 0.0))),
                       intercept=float(intercept),
                       cutoff_uW=float(saturation_cutoff),
                       n_used=int(np.count_nonzero(keep)), model=model)


# ---------------------------------------------------------------------------
# photon correlation

def antibunching_dip(tau_ns, tau_c_ns, irf_sigma_ns):
    """exp(-|tau|/tau_c) convolved with a Gaussian IRF (stable evaluation)."""
    t = np.abs(np.asarray(tau_ns, dtype=float))
    if irf_sigma_ns == 0.0:
        out = np.exp(-t / tau_c_ns)
        return out if out.ndim else float(out)
    from scipy.special import erfcx
    a = irf_sigma_ns / (math.sqrt(2.0) * tau_c_ns)
    with np.errstate(over="ignore"):    # b and b*b reach inf only where exp(-b*b) is 0
        b = t / (math.sqrt(2.0) * irf_sigma_ns)
        gauss = np.exp(-b * b)
    term2 = erfcx(a + b) * gauss
    u = a - b
    safe = u > -25.0
    term1 = np.where(
        safe,
        erfcx(np.where(safe, u, 0.0)) * gauss,
        2.0 * np.exp(np.where(safe, 0.0, a * a - 2.0 * a * b)) - erfcx(np.abs(u)) * gauss)
    out = 0.5 * (term1 + term2)
    return out if out.ndim else float(out)


def g2_model(tau_ns, g0, tau_c_ns, irf_sigma_ns, bin_width_ns, norm=1.0):
    """Antibunching model with IRF convolution and bin box-averaging."""
    tau = np.asarray(tau_ns, dtype=float)
    if bin_width_ns > 0.0:
        half = 0.5 * bin_width_ns
        dip = np.zeros_like(tau, dtype=float)
        for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
            dip += weight * antibunching_dip(tau + half * node, tau_c_ns, irf_sigma_ns)
        dip *= 0.5
    else:
        dip = antibunching_dip(tau, tau_c_ns, irf_sigma_ns)
    out = norm * (1.0 - (1.0 - g0) * dip)
    return out if out.ndim else float(out)


def fit_g2(trace):
    """Fit the antibunching model; returns raw and deconvolved g2(0).

    The trace is normalized by its long-delay plateau; `g0_raw` is the
    minimum of the normalized binned data and `g0_deconvolved` the fitted
    dip depth after undoing the instrument response and bin averaging.
    The model is in coincidence counts: the fit times the plateau.
    """
    tau = trace.delay_ns
    y_raw = trace.coincidences
    tau_max = float(np.max(np.abs(tau)))

    plateau_sel = np.abs(tau) >= 0.6 * tau_max
    plateau = float(np.mean(y_raw[plateau_sel]))
    if plateau <= 0:
        raise NormalizationError("long-delay plateau is empty or zero")
    y = y_raw / plateau
    sigma = np.sqrt(np.maximum(y_raw, 1.0)) / plateau

    g0_raw = float(np.min(y))
    dip_deficit = np.maximum(1.0 - y, 0.0)
    tau_c0 = float(np.trapezoid(dip_deficit, tau) / max(2.0 * (1.0 - g0_raw), 1e-6))
    tau_c0 = min(max(tau_c0, float(trace.bin_width_ns) or 0.05, 0.05), tau_max / 5.0)
    if tau_max < 5.0 * tau_c0:
        raise NormalizationError(
            f"trace spans {tau_max:.2f} ns, needs >= 5 correlation times")

    res, cov, err, reduced_chi2 = _weighted_fit(
        lambda th: (g2_model(tau, th[0], th[1], trace.irf_sigma_ns, trace.bin_width_ns,
                             th[2]) - y) / sigma,
        [max(g0_raw, 0.0), tau_c0, 1.0], bounds=([-1.0, 1e-4, 0.1], [2.0, 1e4, 10.0]),
        method="trf", xtol=1e-13, ftol=1e-13, max_nfev=5000)
    g0_fit, tau_c_fit, norm_fit = res.x
    identifiable = (1.0 - g0_fit) > max(3.0 * err[0], 1e-3)
    if identifiable and tau_max < 5.0 * tau_c_fit:
        raise NormalizationError(
            f"fitted correlation time {tau_c_fit:.2f} ns leaves no plateau "
            f"within the {tau_max:.2f} ns span")
    return FitResult(
        parameters={"g0_raw": g0_raw, "g0_deconvolved": float(g0_fit),
                    "tau_c_ns": float(tau_c_fit), "norm": float(norm_fit)},
        uncertainties={"g0_deconvolved": float(err[0]),
                       "tau_c_ns": float(err[1]), "norm": float(err[2])},
        covariance=cov, reduced_chi2=reduced_chi2, converged=bool(res.success),
        model=plateau * g2_model(tau, float(g0_fit), float(tau_c_fit), trace.irf_sigma_ns,
                                 trace.bin_width_ns, float(norm_fit)),
        flags={"tau_c_identifiable": bool(identifiable)})


def calibrate_g2_instrument(g0, tau_c_ns, bin_width_ns, raw_minimum_target,
                            sigma_bracket=(1e-3, 5.0)):
    """IRF width whose noiseless binned minimum equals the target.

    1D root search in irf_sigma; the forward-simulated binned minimum is
    the oracle. Used to pin the instrument model to a measured raw dip.
    """
    from scipy.optimize import brentq

    def raw_min(sig):
        return g2_model(0.0, g0, tau_c_ns, sig, bin_width_ns)

    lo, hi = sigma_bracket
    if not raw_min(lo) < raw_minimum_target < raw_min(hi):
        raise ValueError("raw-minimum target is outside the bracket's reach")
    return brentq(lambda s: raw_min(s) - raw_minimum_target, lo, hi, xtol=1e-12)


# ---------------------------------------------------------------------------
# lifetime

def _biexp(t, a1, tau1, a2, tau2):
    return a1 * np.exp(-t / tau1) + a2 * np.exp(-t / tau2)


def fit_lifetime(trace):
    """Poisson-weighted biexponential decay fit with single-exp comparison.

    principal_tau is the time constant of the larger-area component; when
    the two constants agree within their joint uncertainty the fit
    collapses to the single-exponential result (degenerate flag).
    """
    t = trace.time_ns - trace.time_ns[0]
    y = trace.counts
    peak = float(np.max(y))
    tail = float(np.mean(y[-max(3, y.size // 10):]))
    if peak < 5.0 * max(tail, 1.0):
        raise InsufficientDecayError(
            f"peak/tail ratio {peak / max(tail, 1.0):.2f} is below 5")

    sigma = np.sqrt(np.maximum(y, 1.0))
    # tail estimate of the slow constant from the last positive decade
    pos = y > max(peak * 1e-4, 1.0)
    t_pos, y_pos = t[pos], y[pos]
    if t_pos.size < 2:
        raise InsufficientDecayError("only the peak bin lies within 4 decades of the peak")
    k = max(t_pos.size // 2, 2)
    slope = np.polyfit(t_pos[-k:], np.log(y_pos[-k:]), 1)[0]
    tau_slow0 = -1.0 / slope if slope < 0 else t[-1] / 5.0
    tau_slow0 = min(max(tau_slow0, 1e-3), t[-1])
    tau_min, tau_max = 1e-4, 1e4        # ns, the lifetime bounds of both fits
    if not (tau_min <= tau_slow0 / 5.0 and tau_slow0 <= tau_max):
        raise TimeScaleError(
            f"time_ns: start lifetimes {tau_slow0 / 5.0:.3g} and {tau_slow0:.3g} ns lie "
            f"outside the fitted range {tau_min:g} to {tau_max:g} ns")

    # Each fit runs twice, reweighted by its model (data-based Poisson weights
    # bias the constants low in the sparse tail bins); the biexponential's
    # second pass starts from its first, the single exponential's restarts.
    options = {"method": "trf", "xtol": 1e-11, "ftol": 1e-11, "max_nfev": 400}
    start = np.array([0.4 * peak, tau_slow0 / 5.0, 0.6 * peak, tau_slow0])
    for _ in range(2):
        res_bi, cov, err, chi2_bi = _weighted_fit(
            lambda theta: (_biexp(t, *theta) - y) / sigma, start,
            bounds=([0.0, tau_min, 0.0, tau_min], [np.inf, tau_max, np.inf, tau_max]),
            **options)
        start = res_bi.x
        sigma = np.sqrt(np.maximum(_biexp(t, *res_bi.x), 1.0))
    a1, tau1, a2, tau2 = res_bi.x
    e_a1, e_t1, e_a2, e_t2 = err
    if tau1 > tau2:
        a1, tau1, a2, tau2 = a2, tau2, a1, tau1
        e_a1, e_t1, e_a2, e_t2 = e_a2, e_t2, e_a1, e_t1

    s_sigma = np.sqrt(np.maximum(y, 1.0))
    for _ in range(2):
        res_s, _, _, chi2_single = _weighted_fit(
            lambda theta: (theta[0] * np.exp(-t / theta[1]) - y) / s_sigma,
            [peak, tau_slow0], bounds=([0.0, tau_min], [np.inf, tau_max]), **options)
        s_sigma = np.sqrt(np.maximum(res_s.x[0] * np.exp(-t / res_s.x[1]), 1.0))

    # degenerate when the constants overlap within their joint uncertainty,
    # when one component carries no area, or when the single-exponential
    # model describes the data equally well
    areas = (a1 * tau1, a2 * tau2)
    minor_fraction = min(areas) / max(sum(areas), 1e-300)
    degenerate = (abs(tau2 - tau1) < (e_t1 + e_t2)
                  or minor_fraction < 1e-3
                  or chi2_single <= chi2_bi + 0.02)
    if degenerate:
        principal = float(res_s.x[1])
    else:
        principal = float(tau2 if a2 * tau2 >= a1 * tau1 else tau1)
    if t[-1] < 5.0 * principal:
        raise InsufficientDecayError(
            f"trace spans {t[-1]:.2f} ns, needs >= 5 principal lifetimes")

    return FitResult(
        parameters={"A1": float(a1), "tau1_ns": float(tau1),
                    "A2": float(a2), "tau2_ns": float(tau2),
                    "principal_tau_ns": principal,
                    "single_tau_ns": float(res_s.x[1])},
        uncertainties={"A1": float(e_a1), "tau1_ns": float(e_t1),
                       "A2": float(e_a2), "tau2_ns": float(e_t2)},
        covariance=cov, reduced_chi2=chi2_bi,
        converged=bool(res_bi.success and res_s.success),
        model=_biexp(t, a1, tau1, a2, tau2),
        flags={"degenerate": bool(degenerate),
               "chi2_single": chi2_single, "chi2_biexp": chi2_bi})


# ---------------------------------------------------------------------------
# synthetic data generators (forward models + seeded noise)

def synth_spectrum(wavelength_nm, peaks, background=0.0, seed=None, **meta):
    """Spectrum from (center, fwhm, amplitude) peak tuples plus background."""
    wl = np.asarray(wavelength_nm, dtype=float)
    clean = np.full(wl.shape, float(background))
    for center, fwhm, amplitude in peaks:
        clean += lorentzian_profile(wl, center, fwhm, amplitude)
    counts = clean if seed is None else np.random.default_rng(seed).poisson(clean)
    return Spectrum(wavelength_nm=wl, counts=np.asarray(counts, dtype=float), **meta)


def synth_polarization_series(center_nm, fss_ueV, angles_deg, theta0_deg=0.0,
                              fwhm_nm=0.05, amplitude=1000.0, background=10.0,
                              window_nm=0.6, n_samples=301, seed=None):
    """Polarizer-angle spectra of one line with splitting `fss_ueV`."""
    e_mean = 1e6 * constants.HC_EV_NM / center_nm
    series = []
    for k, angle in enumerate(angles_deg):
        e_ueV = e_mean + 0.5 * fss_ueV * math.cos(2.0 * math.radians(angle - theta0_deg))
        lam = 1e6 * constants.HC_EV_NM / e_ueV
        wl = np.linspace(center_nm - window_nm / 2, center_nm + window_nm / 2, n_samples)
        series.append(synth_spectrum(
            wl, [(lam, fwhm_nm, amplitude)], background=background,
            seed=None if seed is None else seed + 7919 * k,
            polarizer_angle_deg=float(angle)))
    return series


def synth_g2_trace(g0, tau_c_ns, irf_sigma_ns, bin_width_ns, tau_max_ns=15.0,
                   plateau_counts=1000.0, seed=None):
    """Coincidence histogram drawn from the antibunching model."""
    if bin_width_ns > 2.0 * tau_max_ns / 100_000:
        edges = np.arange(-tau_max_ns, tau_max_ns + 0.5 * bin_width_ns, bin_width_ns)
        tau = 0.5 * (edges[:-1] + edges[1:])
    else:
        bin_width_ns = 0.0
        tau = np.linspace(-tau_max_ns, tau_max_ns, 601)
    clean = plateau_counts * g2_model(tau, g0, tau_c_ns, irf_sigma_ns, bin_width_ns)
    counts = clean if seed is None else np.random.default_rng(seed).poisson(clean)
    return G2Trace(delay_ns=tau, coincidences=np.asarray(counts, dtype=float),
                   bin_width_ns=bin_width_ns, irf_sigma_ns=irf_sigma_ns)


def synth_decay_trace(components, t_max_ns=25.0, dt_ns=0.05, peak_counts=1e4,
                      seed=None):
    """Decay histogram from (tau_ns, area_fraction) components."""
    t = np.arange(0.0, t_max_ns + 0.5 * dt_ns, dt_ns)
    total_area = sum(frac for _, frac in components)
    clean = np.zeros_like(t)
    for tau, frac in components:
        clean += (frac / total_area) / tau * np.exp(-t / tau)
    clean *= peak_counts / clean[0]
    counts = clean if seed is None else np.random.default_rng(seed).poisson(clean)
    return DecayTrace(time_ns=t, counts=np.asarray(counts, dtype=float))


def synth_power_series(slope, powers_uW, prefactor=100.0, noise_frac=0.0,
                       p_sat_uW=None, seed=None):
    """Intensity-versus-power data I = c P^m, hard-saturated above p_sat."""
    p = np.asarray(powers_uW, dtype=float)
    effective = p if p_sat_uW is None else np.minimum(p, p_sat_uW)
    intensity = prefactor * effective ** slope
    if noise_frac > 0:
        rng = np.random.default_rng(seed)
        intensity = intensity * (1.0 + noise_frac * rng.standard_normal(p.size))
    return p, np.maximum(intensity, 1e-12)
