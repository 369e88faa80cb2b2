"""Nonlinear Poisson solver with Fermi-Dirac carrier statistics.

Solves d/dx(eps dphi/dx) = -q (p - n + N_D - N_A) on a device mesh with
carrier densities n = Nc F_half((E_Fn - Ec)/kT), p = Nv F_half((Ev - E_Fp)/kT)
and full dopant ionization. The Fermi level is the energy reference
(E_F = 0 at the substrate contact). Boundary conditions are ohmic: the
potential at each end is pinned to the local charge-neutral value, shifted
by the applied gate voltage at the top contact.

Under bias the contacts are treated as frozen quasi-equilibrium reservoirs:
carrier statistics reference the nearer contact's quasi-Fermi level, with
the split at mid-device, and the top reference sits at -V. Each Poisson
solve is a damped Newton iteration that stops once the largest update
falls below ``NEWTON_TOLERANCE`` thermal voltages (or a looser tolerance
its caller passes, as the drift-diffusion Poisson stage does), or fails
after ``NEWTON_MAX_ITERATIONS`` steps.

Both sweeps, ``band_sweep`` and the drift-diffusion ``iv_sweep``, build
the device arrays and the neutral potential once (``_set_up``) and hand
their rung solve to one walk (``_walk``). It solves 0 V first, from the
sweep's origin state, then each distinct bias once, outward from 0 V on
either side. From a side's last converged rung u, bias v is reached in
n = ceil(|v - u| / ``CONTINUATION_STEP``) equal rungs, the last exactly v
(``_bias_ladder``). A rung solve gets its bias and a start state: the
secant through the side's last two converged rungs (``_secant``; Allgower
& Georg, *Numerical Continuation Methods*, Springer 1990), or the side's
one converged state. A rung that fails is retried once, from the last
converged rung at half the step; a second failure fails its bias, and the
next bias continues from the last converged rung. A rung that has failed
from the same converged rungs before fails its bias at once. If 0 V fails,
both sides start from the origin. ``solve_bias`` is a one-bias sweep.

The F_half implementation is the Bednarczyk analytic approximation of the
complete Fermi-Dirac integral of order 1/2, normalized so F_half(eta) ->
exp(eta) for eta -> -inf; its global relative error against quadrature is
below 0.5%. A Boltzmann statistics branch is selectable through the
``statistics`` argument for non-degenerate reference problems.

One kernel, the private ``_fermi_half_pair``, evaluates the approximation
and returns F and F' together: the shared terms (clip, Gaussian, nu,
exp(-eta), nu^-3/8) are computed once, integer powers are products and
nu^-11/8 is nu^-3/8 / nu, so one call costs one libm ``pow``. The public
``fermi_half`` and ``fermi_half_deriv`` return its two halves.
``inverse_fermi_half`` returns ln(u) where ln(u) <= -30; elsewhere it
starts Newton from Nilsson's closed-form inverse of F_1/2 (Phys. Stat.
Sol. (a) 19, K75, 1973) and calls the pair once per step, and about three
steps bring each value within 1e-13 of the root.

Each Newton trial potential of the Poisson solve gets one pair evaluation
for both carriers, on their stacked (2, N) arguments (one ``exp`` for
Boltzmann statistics). The accepted trial's F' builds the next Jacobian
and its densities are the ones returned, so nothing is evaluated twice at
the same potential; eps_0 eps, q w and the Jacobian's coupling sums are
device arrays, computed once. The tridiagonal Newton step calls LAPACK
``dgtsv`` directly, without ``scipy.linalg.solve_banded``'s band matrix and
wrapper, from scipy's ``_flapack`` extension, loaded without ``scipy.linalg``.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
from dataclasses import dataclass
from importlib.machinery import PathFinder

import numpy as np
import scipy    # the top-level package only: cheap, and on Windows it adds the DLL directory
from numpy.linalg import LinAlgError

from . import constants, dataio
from .device import doping_profile, element_profile
from .materials import lookup_material


@functools.cache
def _load_scipy_extension(package, name, kind):
    """scipy's extension file `name` in scipy/`package`, loaded once, without the package."""
    directory = os.path.join(os.path.dirname(scipy.__file__), package)
    spec = PathFinder.find_spec(f"scipy.{package}.{name}", [directory])
    if spec is None:
        raise ImportError(f"scipy's {kind} extension {name} is not in {directory}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# LAPACK (dgtsv here, dgbtrf, dgbtrs in transport): 4-10 ms; scipy.linalg would add 0.14-0.27 s.
_flapack = _load_scipy_extension("linalg", "_flapack", "LAPACK")
dgtsv = _flapack.dgtsv

_SQRT_PI = math.sqrt(math.pi)
_FD_COEF = 3.0 * _SQRT_PI / 4.0

NEWTON_TOLERANCE = 1e-10       # max scaled Newton update, dimensionless
NEWTON_MAX_ITERATIONS = 200
CONTINUATION_STEP = 0.25       # V, bias continuation increment
_SECANT_REACH = 16.0           # the secant predictor reaches at most this many
                               # lengths of the secant it extrapolates
_INVERSE_MAX = 1e80            # largest u inverse_fermi_half accepts; near 1e89 the
                               # Newton iterates reach the 1e60 clip, where F' is 0


class NonConvergenceError(RuntimeError):
    """Newton iteration failed; carries the residual history."""

    def __init__(self, message, residual_history=None, last_bias=None,
                 iterations=0):
        super().__init__(message)
        self.residual_history = list(residual_history or [])
        self.last_bias = last_bias
        self.iterations = iterations   # drift-diffusion iterations run before the failure


def _fermi_half_pair(eta):
    """(F, F') of the Bednarczyk form at eta from one shared evaluation.

    Integer powers are products and nu^-11/8 is nu^-3/8 / nu. Below
    eta = -50, F = F' = exp(eta). Returns arrays of eta's shape, or two
    floats for a scalar.
    """
    eta = np.asarray(eta, dtype=float)
    safe = np.minimum(np.maximum(eta, -50.0), 1.0e60)
    t = safe + 1.0
    g = np.exp(-0.17 * t * t)
    c = 33.6 - 22.848 * g                        # 33.6 (1 - 0.68 g)
    s2 = safe * safe
    nu = s2 * s2 + 50.0 + safe * c
    dnu = (4.0 * s2 + 7.76832 * t * g) * safe + c  # 7.76832 = 33.6 * 0.68 * 0.34
    xi = _FD_COEF * nu ** -0.375
    e = np.exp(-safe)
    f = 1.0 / (e + xi)
    df = (e + 0.375 * xi / nu * dnu) * f * f
    tail = eta < -50.0
    if tail.any():
        boltz = np.exp(np.clip(eta, -745.0, 0.0))
        f = np.where(tail, boltz, f)
        df = np.where(tail, boltz, df)
    if f.ndim:
        return f, df
    return float(f), float(df)


def fermi_half(eta):
    """Complete Fermi-Dirac integral of order 1/2, F(eta) -> e^eta as eta -> -inf.

    Bednarczyk-form analytic approximation, relative error < 0.5% globally.
    """
    return _fermi_half_pair(eta)[0]


def fermi_half_deriv(eta):
    """Analytic derivative of fermi_half (consistent with the approximation)."""
    return _fermi_half_pair(eta)[1]


def _nilsson_inverse(u):
    """Nilsson's closed-form inverse of F_1/2, within 0.02 in eta of the
    root of the Bednarczyk form for u in [1e-300, 1e6].

    eta = ln(u)/(1 - u^2) + v / (1 + (0.24 + 1.08 v)^-2),
    v = (3 sqrt(pi) u / 4)^(2/3). The first term is 0/0 at u = 1, where its
    limit is -1/2.
    """
    log_term = np.divide(np.log(u) / (1.0 + u), 1.0 - u,
                         out=np.full_like(u, -0.5), where=u != 1.0)
    c = np.cbrt(0.75 * _SQRT_PI * u)
    v = c * c
    r = 1.0 / (0.24 + 1.08 * v)
    return log_term + v / (1.0 + r * r)


def inverse_fermi_half(u):
    """Solve fermi_half(eta) = u for eta (safeguarded Newton).

    Where ln(u) <= -30 the root is ln(u) to the last bit, and that is
    returned. Elsewhere Newton starts from Nilsson's closed-form inverse
    (within 0.02 of the root) and evaluates F and F' through the shared
    ``_fermi_half_pair`` once per step. A value stops once its step s is
    below 4e-7 max(1, eta): the error left, about |F''/2F'| s^2, is then
    below 6.5e-14 max(1, |eta|). As each value stops on its own, a stacked
    call returns its rows bit for bit. Raises ValueError unless every u is
    in (0, 1e80], so a non-finite or absurd density fails by name instead
    of dividing by an F' that underflowed.
    """
    u = np.asarray(u, dtype=float)
    if not np.all((u > 0) & (u <= _INVERSE_MAX)):
        raise ValueError(f"inverse_fermi_half requires arguments in (0, {_INVERSE_MAX:g}]")
    flat = u.reshape(-1)
    out = np.log(flat)
    live = out > -30.0
    if live.any():
        target = flat[live]
        eta = _nilsson_inverse(target)
        done = np.zeros(eta.shape, dtype=bool)
        for _ in range(100):
            f, df = _fermi_half_pair(eta)
            limit = 5.0 + 0.1 * np.abs(eta)
            step = np.where(done, 0.0, np.clip((f - target) / df, -limit, limit))
            eta = eta - step
            done |= np.abs(step) < 4e-7 * np.maximum(1.0, eta)
            if done.all():
                break
        out[live] = eta
    out = out.reshape(u.shape)
    return out if out.ndim else float(out)


def _exp_clipped(eta):
    return np.exp(np.minimum(eta, 700.0))


def _exp_pair(eta):
    e = _exp_clipped(eta)
    return e, e


def _statistics(name):
    """(F, F', pair, inverse) of the carrier statistics `name`, "fermi" or
    "boltzmann"; pair(eta) gives (F, F') from one evaluation and
    inverse(u) solves F(eta) = u.

    The public kernels are looked up at each call, not kept in a table, so
    that a rebinding of them (the benchmark's tracer) reaches every caller.
    """
    if name == "fermi":
        return fermi_half, fermi_half_deriv, _fermi_half_pair, inverse_fermi_half
    if name == "boltzmann":
        return _exp_clipped, _exp_clipped, _exp_pair, np.log
    raise ValueError(f"unknown statistics {name!r}")


@dataclass(frozen=True)
class BandDiagram:
    mesh: object
    phi: np.ndarray          # V
    Ec: np.ndarray           # eV
    Ev: np.ndarray           # eV
    n: np.ndarray            # cm^-3
    p: np.ndarray            # cm^-3
    field: np.ndarray        # V/cm
    efn: np.ndarray          # eV, electron quasi-Fermi level
    efp: np.ndarray          # eV, hole quasi-Fermi level
    bias: float              # V
    temperature: float       # K
    converged: bool
    newton_update: float     # largest |dphi|/Vt of the last Newton step

    def to_csv(self, path):
        dataio.write_table(
            path,
            [self.mesh.nodes, self.Ec, self.Ev, self.phi, self.n, self.p, self.field],
            ["position_nm", "Ec_eV", "Ev_eV", "phi_V", "n_cm3", "p_cm3", "F_Vcm"],
            meta={"bias_V": self.bias, "temperature_K": self.temperature,
                  "converged": self.converged, "newton_update": self.newton_update},
        )


@dataclass(frozen=True)
class _DeviceArrays:
    """Mesh-resolved material/doping arrays in solver units (cm)."""

    x: np.ndarray            # node positions, cm
    h: np.ndarray            # element widths, cm
    w: np.ndarray            # node control widths, cm
    eps_el: np.ndarray       # relative permittivity per element
    Nc: np.ndarray
    Nv: np.ndarray
    Ec0: np.ndarray          # eV, conduction edge at phi = 0
    Ev0: np.ndarray
    Nd: np.ndarray
    Na: np.ndarray
    mu_e_el: np.ndarray      # cm^2/(V s) per element
    mu_h_el: np.ndarray
    Vt: float
    eps0_eps: np.ndarray     # eps_0 * eps per element
    cond: np.ndarray         # eps_0 eps / h per element, and the sum of each
    cond_sum: np.ndarray     # interior row's two, cond[1:] + cond[:-1]
    q_w: np.ndarray          # q * w per node


def build_device_arrays(stack, mesh):
    """Precompute per-node and per-element solver arrays for a stack/mesh."""
    from .materials import mobility_at

    T = stack.temperature
    mats = [lookup_material(l.material, T) for l in stack.layers]
    nd_n, na_n = doping_profile(stack, mesh)
    nd_el, na_el, eps_el = element_profile(stack, mesh)

    nc_layer = np.array([m.nc() for m in mats])
    nv_layer = np.array([m.nv() for m in mats])
    ec_layer = np.array([m.ec_abs for m in mats])
    ev_layer = np.array([m.ev_abs for m in mats])
    mu_e_layer = np.array([
        mobility_at(m.mobility_e, l.donor_cm3 + l.acceptor_cm3, T, m.mobility_T_exponent)
        for m, l in zip(mats, stack.layers)])
    mu_h_layer = np.array([
        mobility_at(m.mobility_h, l.donor_cm3 + l.acceptor_cm3, T, m.mobility_T_exponent)
        for m, l in zip(mats, stack.layers)])

    x = mesh.nodes * constants.NM_TO_CM
    h = np.diff(x)
    w = np.empty_like(x)
    w[0] = 0.5 * h[0]
    w[-1] = 0.5 * h[-1]
    w[1:-1] = 0.5 * (h[:-1] + h[1:])
    eps0_eps = constants.EPS_0 * eps_el
    cond = eps0_eps / h

    return _DeviceArrays(
        x=x, h=h, w=w, eps_el=eps_el, eps0_eps=eps0_eps, cond=cond,
        cond_sum=cond[1:] + cond[:-1], q_w=constants.Q_E * w,
        Nc=nc_layer[mesh.node_layer], Nv=nv_layer[mesh.node_layer],
        Ec0=ec_layer[mesh.node_layer], Ev0=ev_layer[mesh.node_layer],
        Nd=nd_n, Na=na_n,
        mu_e_el=mu_e_layer[mesh.element_layer],
        mu_h_el=mu_h_layer[mesh.element_layer],
        Vt=constants.thermal_voltage(T),
    )


def carrier_densities(arr, phi, efn, efp, statistics="fermi"):
    """(n, p) for a potential and quasi-Fermi-level profiles."""
    f = _statistics(statistics)[0]
    n = arr.Nc * f((efn - (arr.Ec0 - phi)) / arr.Vt)
    p = arr.Nv * f(((arr.Ev0 - phi) - efp) / arr.Vt)
    return n, p


def neutral_potential(arr, statistics="fermi"):
    """Per-node potential solving local charge neutrality at E_F = 0."""
    f, df, _, inverse = _statistics(statistics)
    net = arr.Nd - arr.Na
    # dominant-carrier starting point
    phi = np.where(
        net >= 0,
        arr.Ec0 + arr.Vt * inverse(np.maximum(net, 1.0) / arr.Nc),
        arr.Ev0 - arr.Vt * inverse(np.maximum(-net, 1.0) / arr.Nv),
    )
    for _ in range(100):
        eta_n = (phi - arr.Ec0) / arr.Vt
        eta_p = (arr.Ev0 - phi) / arr.Vt
        resid = arr.Nv * f(eta_p) - arr.Nc * f(eta_n) + net
        slope = -(arr.Nv * df(eta_p) + arr.Nc * df(eta_n)) / arr.Vt
        step = np.clip(-resid / slope, -0.5, 0.5)
        phi = phi + step
        if np.max(np.abs(step)) < 1e-14:
            break
    return phi


def _poisson_residual(arr, phi, efn, efp, pair, phi_bc):
    """Residual at `phi` with the densities and the F' values behind it:
    (r, n, p, F'_n, F'_p). Both carriers share one pair evaluation."""
    eta = np.empty((2, phi.size))
    np.subtract(efn, arr.Ec0 - phi, out=eta[0])
    np.subtract(arr.Ev0 - phi, efp, out=eta[1])
    (f_n, f_p), (df_n, df_p) = pair(eta / arr.Vt)
    n = arr.Nc * f_n
    p = arr.Nv * f_p
    flux = arr.eps0_eps * np.diff(phi) / arr.h
    r = np.empty_like(phi)
    r[1:-1] = (flux[1:] - flux[:-1]) + arr.q_w[1:-1] * (
        p[1:-1] - n[1:-1] + arr.Nd[1:-1] - arr.Na[1:-1])
    r[0] = phi[0] - phi_bc[0]
    r[-1] = phi[-1] - phi_bc[1]
    return r, n, p, df_n, df_p


def _tridiag_solve(lower, diag, upper, rhs):
    """Solve A x = rhs for tridiagonal A: sub-diagonal `lower` (A[i+1, i]),
    `diag` and super-diagonal `upper` (A[i, i+1]).

    Calls LAPACK dgtsv, the routine ``scipy.linalg.solve_banded`` uses for
    one sub- and one super-diagonal, without its band matrix or scipy.linalg.
    Like it, raises ValueError on non-finite input and LinAlgError on a
    singular matrix; the inputs are not modified.
    """
    for a in (lower, diag, upper, rhs):
        if not np.isfinite(a).all():
            raise ValueError("array must not contain infs or NaNs")
    *_, x, info = dgtsv(lower, diag, upper, rhs)
    if info > 0:
        raise LinAlgError("singular matrix")
    return x


def _solve_poisson(arr, efn, efp, phi_bc, phi0, statistics, tolerance=None):
    """Damped Newton iteration for the nonlinear Poisson problem, to an
    update below `tolerance` (``NEWTON_TOLERANCE`` if None) thermal voltages.

    Each trial potential gets one F/F' evaluation for both carriers: the
    accepted trial's F' builds the next Jacobian and its densities are
    returned.
    """
    tolerance = NEWTON_TOLERANCE if tolerance is None else tolerance
    pair = _statistics(statistics)[2]
    phi = phi0.copy()
    phi[0], phi[-1] = phi_bc
    history = []
    converged = False
    scaled_update = np.inf

    # Dirichlet rows at both ends: unit diagonal, no coupling to the interior
    upper = arr.cond.copy()
    upper[0] = 0.0
    lower = arr.cond.copy()
    lower[-1] = 0.0
    diag = np.ones_like(phi)

    r, n, p, df_n, df_p = _poisson_residual(arr, phi, efn, efp, pair, phi_bc)
    rnorm = np.linalg.norm(r)
    for _ in range(NEWTON_MAX_ITERATIONS):
        dn = arr.Nc * df_n / arr.Vt
        dp = arr.Nv * df_p / arr.Vt
        diag[1:-1] = -arr.cond_sum - arr.q_w[1:-1] * (dp[1:-1] + dn[1:-1])
        delta = _tridiag_solve(lower, diag, upper, -r)

        scaled_update = np.max(np.abs(delta)) / arr.Vt
        t = 1.0
        for _ in range(30):
            trial = phi + t * delta
            # a trial whose densities or residual overflow has an inf or NaN
            # residual norm, which is rejected
            with np.errstate(over="ignore", invalid="ignore"):
                r_new, n, p, df_n, df_p = _poisson_residual(arr, trial, efn, efp, pair,
                                                            phi_bc)
                rnorm_new = np.linalg.norm(r_new)
            if rnorm_new <= rnorm or scaled_update < tolerance:
                break
            t *= 0.5
        else:
            # every halving rejected: the step taken is half the last trial's
            trial = phi + t * delta
            _, n, p, df_n, df_p = _poisson_residual(arr, trial, efn, efp, pair, phi_bc)
        phi = trial
        r, rnorm = r_new, rnorm_new
        history.append(float(scaled_update))
        if scaled_update < tolerance:
            converged = True
            break

    return phi, n, p, history, converged, float(scaled_update)


def _electric_field(x_cm, phi):
    """-dphi/dx [V/cm], central differences inside, one-sided at the ends."""
    field = np.empty_like(phi)
    field[1:-1] = -(phi[2:] - phi[:-2]) / (x_cm[2:] - x_cm[:-2])
    field[0] = -(phi[1] - phi[0]) / (x_cm[1] - x_cm[0])
    field[-1] = -(phi[-1] - phi[-2]) / (x_cm[-1] - x_cm[-2])
    return field


def quasi_fermi_split(stack, mesh, bias):
    """Quasi-Fermi-level profile for the gated solve: 0 below mid-device,
    -bias at and above it."""
    return np.where(mesh.nodes < 0.5 * stack.total_thickness_nm, 0.0, -bias)


def solve_bias(stack, mesh, bias, statistics="fermi"):
    """Band diagram at gate voltage `bias`: a one-bias `band_sweep` that
    raises its NonConvergenceError."""
    ((_, result),) = band_sweep(stack, mesh, [bias], statistics)
    if isinstance(result, NonConvergenceError):
        raise result
    return result


def band_sweep(stack, mesh, biases, statistics="fermi"):
    """Band diagrams at `biases`, as an iterator of (bias, BandDiagram or
    NonConvergenceError) pairs.

    Raises ValueError, before anything is solved, naming the first bias
    that is not finite or lies outside the +/-5 V sanity bound. Each
    distinct bias is solved once, by the walk of the module docstring from
    the neutral potential, and yielded as it is solved; none is kept.
    """
    _check_biases(biases)
    return _sweep(stack, mesh, biases, statistics)


def _check_biases(biases):
    """Raise ValueError naming the first bias that is not finite or lies
    outside the +/-5 V sanity bound."""
    for bias in biases:
        if not abs(bias) <= 5.0:
            raise ValueError(f"gate voltage {bias} V is not finite or outside the "
                             "+/-5 V sanity bound")


def _bias_ladder(start, target, step):
    """Rungs start + (target - start) k/n, k = 1 ... n - 1, and target itself,
    in n = max(1, ceil(|target - start| / step)) equal steps."""
    n = max(1, math.ceil(abs(target - start) / step))
    return [start + (target - start) * k / n for k in range(1, n)] + [target]


def _secant(a, b, v):
    """The secant predictor at bias `v` through the solved pairs a = (v_a, x_a)
    and b = (v_b, x_b): x_b + t (x_b - x_a), t = (v - v_b) / (v_b - v_a).

    t is capped at ``_SECANT_REACH``: two solved biases far closer together
    than the next step (0 V and 1e-269 V, say) define a slope that is mostly
    rounding, and an uncapped t would carry it to a start that overflows.
    """
    (v_a, x_a), (v_b, x_b) = a, b
    t = min((v - v_b) / (v_b - v_a), _SECANT_REACH)
    return x_b + t * (x_b - x_a)


def _walk(biases, origin, solve):
    """(bias, result) for each distinct bias as it is solved, by the walk of
    the module docstring from the state `origin` at 0 V in rungs of at most
    ``CONTINUATION_STEP`` volts. solve(v, x, final) solves the rung at v from
    the start state x, `final` when v is a bias; it returns the converged
    state and the bias's result, or None and a NonConvergenceError.
    """
    order = sorted(set(biases))
    if not order:
        return
    x, result = solve(0.0, origin, 0.0 in order)
    yield from ((bias, result) for bias in order if bias == 0.0)
    zero = [(0.0, origin if x is None else x)]
    for branch in ([b for b in order if b > 0.0], [b for b in order[::-1] if b < 0.0]):
        side, failed = zero, {}     # the last two converged rungs; rungs failed from them
        for bias in branch:
            rungs, retry = _bias_ladder(side[-1][0], bias, CONTINUATION_STEP), True
            while rungs:
                v = rungs.pop(0)
                key = (v, v == bias)
                if key not in failed:
                    start = _secant(*side, v) if len(side) == 2 else side[-1][1]
                    x, result = solve(v, start, key[1])
                    if x is not None:
                        side, failed = [side[-1], (v, x)], {}
                        continue
                    failed[key] = result
                    if retry:
                        retry = False
                        rungs[:0] = [side[-1][0] + (v - side[-1][0]) / 2, v]
                        continue
                last = side[-1][0]
                result = NonConvergenceError(
                    f"bias continuation stalled at V = {v:.4f} V (last converged V = "
                    f"{last:.4f} V): {failed[key]}", failed[key].residual_history,
                    last_bias=last)
                break
            yield bias, result


def _set_up(stack, mesh, statistics):
    """(arrays, neutral potential, solve) of a sweep, where solve(v, phi0)
    gives (efn, phi, n, p, history, converged, update) at gate voltage v."""
    arr = build_device_arrays(stack, mesh)
    phi_n = neutral_potential(arr, statistics)

    def solve(v, phi0):
        efn = quasi_fermi_split(stack, mesh, v)
        return (efn, *_solve_poisson(arr, efn, efn, (phi_n[0], phi_n[-1] + v), phi0,
                                     statistics))

    return arr, phi_n, solve


def _sweep(stack, mesh, biases, statistics):
    arr, phi_n, solve = _set_up(stack, mesh, statistics)

    def rung(v, start, final):
        efn, phi, n, p, history, ok, update = solve(v, start)
        if not ok:
            return None, NonConvergenceError(
                f"Poisson solve at V = {v:.4f} V did not converge in "
                f"{NEWTON_MAX_ITERATIONS} iterations (last scaled update {update:.3e})",
                history)
        if not final:
            return phi, None
        return phi, BandDiagram(
            mesh=mesh, phi=phi, Ec=arr.Ec0 - phi, Ev=arr.Ev0 - phi, n=n, p=p,
            field=_electric_field(arr.x, phi), efn=efn, efp=efn, bias=v,
            temperature=stack.temperature, converged=True, newton_update=update)

    yield from _walk(biases, phi_n, rung)


def field_lever_arm(bias, d_i_nm):
    """Mean field V/d_i in kV/cm for an intrinsic region of d_i nanometres."""
    if not 0.0 < d_i_nm < math.inf:
        raise ValueError(f"intrinsic thickness must be finite and positive, not {d_i_nm} nm")
    return bias * 1.0e4 / d_i_nm
