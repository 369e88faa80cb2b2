"""Nonlinear Poisson solver with Fermi-Dirac carrier statistics.

Solves d/dx(eps dphi/dx) = -q (p - n + N_D - N_A) on a device mesh with
carrier densities n = Nc F_half((E_Fn - Ec)/kT), p = Nv F_half((Ev - E_Fp)/kT)
and full dopant ionization. The Fermi level is the energy reference
(E_F = 0 at the substrate contact). Boundary conditions are ohmic: the
potential at each end is pinned to the local charge-neutral value, shifted
by the applied gate voltage at the top contact.

Under bias the contacts are treated as frozen quasi-equilibrium reservoirs:
carrier statistics reference the nearer contact's quasi-Fermi level, with
the split at mid-device, and the top reference sits at -V. The bias solve
continues from the equilibrium solution in steps of at most
``CONTINUATION_STEP`` volts. Each Poisson solve is a damped Newton
iteration that stops once the largest update falls below
``NEWTON_TOLERANCE`` thermal voltages, or fails after
``NEWTON_MAX_ITERATIONS`` steps.

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
``inverse_fermi_half`` starts its Newton iteration from Nilsson's closed-form
inverse of F_1/2 (Phys. Stat. Sol. (a) 19, K75, 1973) and calls the pair
once per step.

Each Newton trial potential of the Poisson solve gets one pair evaluation
per carrier (one ``exp`` for Boltzmann statistics). The accepted trial's
F' builds the next Jacobian and its densities are the ones returned, so
nothing is evaluated twice at the same potential. The tridiagonal Newton
step calls LAPACK ``dgtsv`` directly, the routine
``scipy.linalg.solve_banded`` uses for this band structure, without its
band matrix and argument wrapper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv

from . import constants, dataio
from .device import doping_profile, element_profile
from .materials import lookup_material

_SQRT_PI = math.sqrt(math.pi)
_FD_COEF = 3.0 * _SQRT_PI / 4.0

NEWTON_TOLERANCE = 1e-10       # max scaled Newton update, dimensionless
NEWTON_MAX_ITERATIONS = 200
CONTINUATION_STEP = 0.25       # V, bias continuation increment


class NonConvergenceError(RuntimeError):
    """Newton iteration failed; carries the residual history."""

    def __init__(self, message, residual_history=None, last_bias=None,
                 gummel_cycles=0):
        super().__init__(message)
        self.residual_history = list(residual_history or [])
        self.last_bias = last_bias
        self.gummel_cycles = gummel_cycles   # drift-diffusion cycles run before the failure


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

    Starts from Nilsson's closed-form inverse (within 0.02 of the root)
    and evaluates F and F' through the shared
    ``_fermi_half_pair`` once per step (see the module docstring); about
    three steps reach the 1e-13 stop.
    """
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0):
        raise ValueError("inverse_fermi_half requires positive arguments")
    eta = _nilsson_inverse(u)
    for _ in range(100):
        f, df = _fermi_half_pair(eta)
        limit = 5.0 + 0.1 * np.abs(eta)
        step = np.clip((f - u) / df, -limit, limit)
        eta = eta - step
        if (np.abs(step) / np.maximum(1.0, np.abs(eta))).max() < 1e-13:
            break
    return eta if eta.ndim else float(eta)


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
                             # (drift-diffusion: last quasi-Fermi update, V)

    def to_csv(self, path, extra_meta=None):
        meta = {
            "bias_V": dataio.format_float(self.bias),
            "temperature_K": dataio.format_float(self.temperature),
            "converged": self.converged,
            "newton_update": dataio.format_float(self.newton_update),
        }
        meta.update(extra_meta or {})
        dataio.write_table(
            path,
            [self.mesh.nodes, self.Ec, self.Ev, self.phi, self.n, self.p, self.field],
            ["position_nm", "Ec_eV", "Ev_eV", "phi_V", "n_cm3", "p_cm3", "F_Vcm"],
            meta=meta,
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
    temperature: float


def build_device_arrays(stack, mesh):
    """Precompute per-node and per-element solver arrays for a stack/mesh."""
    from .materials import mobility_at

    T = stack.temperature
    mats = [lookup_material(l.material, T) for l in stack.layers]
    nd_n, na_n, _ = doping_profile(stack, mesh)
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

    return _DeviceArrays(
        x=x, h=h, w=w, eps_el=eps_el,
        Nc=nc_layer[mesh.node_layer], Nv=nv_layer[mesh.node_layer],
        Ec0=ec_layer[mesh.node_layer], Ev0=ev_layer[mesh.node_layer],
        Nd=nd_n, Na=na_n,
        mu_e_el=mu_e_layer[mesh.element_layer],
        mu_h_el=mu_h_layer[mesh.element_layer],
        Vt=constants.thermal_voltage(T), temperature=T,
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
    (r, n, p, F'_n, F'_p)."""
    f_n, df_n = pair((efn - (arr.Ec0 - phi)) / arr.Vt)
    f_p, df_p = pair(((arr.Ev0 - phi) - efp) / arr.Vt)
    n = arr.Nc * f_n
    p = arr.Nv * f_p
    flux = constants.EPS_0 * arr.eps_el * np.diff(phi) / arr.h
    r = np.empty_like(phi)
    r[1:-1] = (flux[1:] - flux[:-1]) + constants.Q_E * arr.w[1:-1] * (
        p[1:-1] - n[1:-1] + arr.Nd[1:-1] - arr.Na[1:-1])
    r[0] = phi[0] - phi_bc[0]
    r[-1] = phi[-1] - phi_bc[1]
    return r, n, p, df_n, df_p


def _tridiag_solve(lower, diag, upper, rhs):
    """Solve A x = rhs for tridiagonal A: sub-diagonal `lower` (A[i+1, i]),
    `diag` and super-diagonal `upper` (A[i, i+1]).

    Calls LAPACK dgtsv, the routine ``scipy.linalg.solve_banded`` uses for
    one sub- and one super-diagonal, without building its band matrix.
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


def _solve_poisson(arr, efn, efp, phi_bc, phi0, statistics):
    """Damped Newton iteration for the nonlinear Poisson problem.

    Each trial potential gets one F/F' evaluation per carrier: the accepted
    trial's F' builds the next Jacobian and its densities are returned.
    """
    pair = _statistics(statistics)[2]
    phi = phi0.copy()
    phi[0], phi[-1] = phi_bc
    history = []
    converged = False
    scaled_update = np.inf

    # Dirichlet rows at both ends: unit diagonal, no coupling to the interior
    cond = constants.EPS_0 * arr.eps_el / arr.h
    upper = cond.copy()
    upper[0] = 0.0
    lower = cond.copy()
    lower[-1] = 0.0
    diag = np.ones_like(phi)

    r, n, p, df_n, df_p = _poisson_residual(arr, phi, efn, efp, pair, phi_bc)
    rnorm = np.linalg.norm(r)
    for _ in range(NEWTON_MAX_ITERATIONS):
        dn = arr.Nc * df_n / arr.Vt
        dp = arr.Nv * df_p / arr.Vt
        diag[1:-1] = -(cond[1:] + cond[:-1]) - constants.Q_E * arr.w[1:-1] * (
            dp[1:-1] + dn[1:-1])
        delta = _tridiag_solve(lower, diag, upper, -r)

        scaled_update = np.max(np.abs(delta)) / arr.Vt
        t = 1.0
        for _ in range(30):
            trial = phi + t * delta
            r_new, n, p, df_n, df_p = _poisson_residual(arr, trial, efn, efp, pair, phi_bc)
            # an overflowing trial residual gives inf, which is rejected
            with np.errstate(over="ignore"):
                rnorm_new = np.linalg.norm(r_new)
            if rnorm_new <= rnorm or scaled_update < NEWTON_TOLERANCE:
                break
            t *= 0.5
        else:
            # every halving rejected: the step taken is half the last trial's
            trial = phi + t * delta
            _, n, p, df_n, df_p = _poisson_residual(arr, trial, efn, efp, pair, phi_bc)
        phi = trial
        r, rnorm = r_new, rnorm_new
        history.append(float(scaled_update))
        if scaled_update < NEWTON_TOLERANCE:
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


def _make_diagram(stack, mesh, arr, phi, n, p, efn, efp, bias, converged, update):
    return BandDiagram(
        mesh=mesh, phi=phi, Ec=arr.Ec0 - phi, Ev=arr.Ev0 - phi, n=n, p=p,
        field=_electric_field(arr.x, phi), efn=efn, efp=efp, bias=bias,
        temperature=stack.temperature, converged=converged, newton_update=update)


def quasi_fermi_split(stack, mesh, bias):
    """Quasi-Fermi-level profile for the gated solve: 0 below mid-device,
    -bias at and above it."""
    mid = 0.5 * stack.total_thickness_nm
    ef = np.where(mesh.nodes < mid, 0.0, -bias)
    return ef


def solve_equilibrium(stack, mesh, statistics="fermi"):
    """Zero-bias band diagram (constant Fermi level at 0 eV).

    `statistics` is "fermi" or "boltzmann".
    """
    arr = build_device_arrays(stack, mesh)
    efn = np.zeros(mesh.n_nodes)
    phi_n = neutral_potential(arr, statistics)
    phi_bc = (phi_n[0], phi_n[-1])
    phi, n, p, hist, ok, update = _solve_poisson(arr, efn, efn, phi_bc, phi_n, statistics)
    if not ok:
        raise NonConvergenceError(
            f"equilibrium Poisson solve did not converge in {NEWTON_MAX_ITERATIONS} "
            f"iterations (last scaled update {update:.3e})", hist)
    return _make_diagram(stack, mesh, arr, phi, n, p, efn, efn, 0.0, ok, update)


def solve_bias(stack, mesh, bias, statistics="fermi"):
    """Band diagram at gate voltage `bias`, by continuation from equilibrium."""
    if abs(bias) > 5.0:
        raise ValueError("gate voltage outside the +/-5 V sanity bound")
    arr = build_device_arrays(stack, mesh)
    phi_n = neutral_potential(arr, statistics)

    eq = solve_equilibrium(stack, mesh, statistics)
    if bias == 0.0:
        return eq

    n_steps = max(1, int(math.ceil(abs(bias) / CONTINUATION_STEP)))
    phi = eq.phi.copy()
    v_done = 0.0
    for k in range(1, n_steps + 1):
        v = bias * k / n_steps
        efn = quasi_fermi_split(stack, mesh, v)
        phi_bc = (phi_n[0], phi_n[-1] + v)
        phi_guess = phi.copy()
        phi_guess[-1] = phi_bc[1]
        phi, n, p, hist, ok, update = _solve_poisson(arr, efn, efn, phi_bc, phi_guess,
                                                     statistics)
        if not ok:
            raise NonConvergenceError(
                f"bias continuation stalled at V = {v:.4f} V "
                f"(last converged V = {v_done:.4f} V)", hist, last_bias=v_done)
        v_done = v
    return _make_diagram(stack, mesh, arr, phi, n, p, efn, efn, bias, True, update)


def field_lever_arm(bias, d_i_nm):
    """Mean field V/d_i in kV/cm for an intrinsic region of d_i nanometres."""
    if d_i_nm <= 0:
        raise ValueError("intrinsic thickness must be positive")
    return bias * 1.0e4 / d_i_nm
