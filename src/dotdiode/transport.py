"""1D drift-diffusion current solver (Gummel iteration, SG fluxes).

Each bias point alternates a Scharfetter-Gummel continuity solve for the
carrier densities with a nonlinear Poisson solve at frozen quasi-Fermi
levels until the quasi-Fermi update drops below tolerance. The electron
flux between nodes i and i+1 is

    J = (q mu kT / h) [n_{i+1} B(dw/kT) - n_i B(-dw/kT)],   B(x) = x/(e^x - 1)

where dw is the difference of the driving potential w = phi - Ec0 +
kT ln Nc + kT ln(F12(eta)/e^eta). The last two terms extend the textbook
discretization to heterojunction band steps and Fermi-Dirac degeneracy;
for a uniform non-degenerate device w reduces to the electrostatic
potential and the scheme is the classical one. The degeneracy term is
iterated with a per-node damping factor F'(eta)/F(eta), which keeps the
fixed-point iteration contractive even at the strongly degenerate
quantum-well layer.

One Gummel cycle is a fixed-point map of the potential, the quasi-Fermi
levels, the degeneracy terms, the densities and the recombination rate.
Plain iteration of that map converges only linearly, so each new cycle
output is combined with those of up to ``ANDERSON_DEPTH`` previous
cycles by type-II Anderson mixing (Walker & Ni, SIAM J. Numer. Anal. 49,
1715 (2011)). The mixing weights minimise the combined residual of the
potential, the quasi-Fermi levels (both in units of kT) and the
degeneracy terms; they come from the small normal equations of that
least-squares problem. The mixing changes the path, not the fixed point:
the clip windows on the quasi-Fermi levels stay inside the map,
convergence is still judged on the quasi-Fermi update of a single cycle,
and the state a solve returns is always an unmixed cycle output.

Electrons and holes go through a cycle together, as (2, N) rows: one
inverse of F_1/2, one degeneracy update and one clip per window serve
both. The Poisson stage is solved inexactly, after the forcing terms of
Eisenstat & Walker (SIAM J. Sci. Comput. 17, 16 (1996)): to
max(``NEWTON_TOLERANCE``, ``STAGE_FORCING`` q/kT), q being the previous
cycle's quasi-Fermi update (the first cycle of a rung: to
``NEWTON_TOLERANCE``). Only a cycle whose stage reached
``NEWTON_TOLERANCE`` ends the iteration, so every reported potential is
a fully converged Poisson solution.

In one dimension the steady-state electron continuity equation integrates
exactly: the element fluxes are one unknown plus the cumulative
recombination / generation sources, and the Slotboom density
s = n exp(-w/kT) follows by two-sided cumulative summation (each node
anchored to the nearer contact, which preserves relative accuracy across
the exp(V/kT) span of s at high bias). Discrete current continuity of the
majority carrier then holds to machine precision by construction, and
zero bias with zero net sources yields an exactly zero flux (detailed
balance). Holes, which carry negligible current here but must stay
bounded under strong generation, use a conventional tridiagonal SG solve
with the recombination loss implicit.

Direct radiative recombination with a single constant coefficient is the
only recombination channel, written in its quasi-Fermi form
R = B_rad n p [1 - exp((E_Fp - E_Fn)/kT)] so that it vanishes identically
at equilibrium under any carrier statistics (it reduces to the textbook
B (np - ni^2) in the Boltzmann limit). The default B_rad = 1e-10 cm^3/s
keeps the minority-carrier accumulation of a recombination-free model
bounded without touching the V = 0 detailed balance. An optional uniform
generation rate in the undoped layers models above-band illumination
phenomenologically.

``iv_sweep`` hands the walk of the ``electrostatics`` module docstring a
Gummel rung, from a state seeded by the 0 V Poisson solution. The state
is one (8, N) array of the cycle map's rows (potential, quasi-Fermi
levels, degeneracy terms, ln n, ln p, recombination rate), which the
secant predictor extrapolates directly. A rung carries a state solved at
another bias to its own (``restep``) and iterates to the loose
``QF_TOLERANCE_CONTINUATION`` within ``MAX_GUMMEL_CONTINUATION`` cycles
before a bias of the sweep, and to ``QF_TOLERANCE`` within ``MAX_GUMMEL``
at it. A point counts the Gummel cycles run since the previous point.
``solve_drift_diffusion`` is a one-bias sweep.

Sign convention: reported currents are positive when a positive gate
voltage drives conventional current through the device (resistor-like IV
in the ohmic limit).

Quantitative agreement with measured cryogenic IV magnitudes is out of
scope; the solver targets room-temperature, property-level behaviour
(ohmic limit, detailed balance, discrete current continuity, the
superlinear barrier-limited turn-on and the asymmetry of an asymmetric
stack).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from . import constants, dataio
from .device import DOPED_CONTACT_THRESHOLD
from .electrostatics import (
    CONTINUATION_STEP, NEWTON_TOLERANCE, NonConvergenceError, build_device_arrays,
    carrier_densities,
    _fermi_half_pair, _solve_poisson, _tridiag_solve, _make_diagram, _statistics,
    quasi_fermi_split, _check_biases, _set_up, _walk,
)
# perfbench/test_perfbench.py checks that its tracer wraps these bindings
from .electrostatics import fermi_half, solve_bias  # noqa: F401

MESA_AREA_CM2 = 0.14e-2  # 0.14 mm^2 reference mesa

QF_TOLERANCE = 1e-8                 # V, max quasi-Fermi update per cycle
MAX_GUMMEL = 500
QF_TOLERANCE_CONTINUATION = 1e-5    # V, at intermediate biases
MAX_GUMMEL_CONTINUATION = 150
QF_DENSITY_FLOOR = 1e6              # cm^-3, QFL updates below this density
                                    # do not count towards convergence
B_RADIATIVE = 1e-10                 # cm^3/s
ANDERSON_DEPTH = 5                  # previous Gummel cycles mixed into each new one
STAGE_FORCING = 1e-3                # a cycle's Poisson stage stops at this fraction of
                                    # the previous cycle's quasi-Fermi update (in kT)


def bernoulli(x):
    """B(x) = x / (e^x - 1), series-evaluated for |x| < 1e-4.

    Satisfies B(0) = 1 and B(-x) = B(x) + x; relative error < 1e-12 over
    |x| <= 50 (checked against an extended-precision oracle).
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    xs = np.where(small, 1.0, x)
    with np.errstate(over="ignore"):
        main = xs / np.expm1(xs)
    x2 = x * x
    series = 1.0 - x / 2.0 + x2 / 12.0 - x2 * x2 / 720.0
    out = np.where(small, series, main)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class IVPoint:
    bias: float                 # V
    current_density: float      # A/cm^2
    gummel_iterations: int
    converged: bool
    continuity_error: float     # max relative node-to-node flux variation

    def current(self, area_cm2=MESA_AREA_CM2):
        return self.current_density * area_cm2


@dataclass(frozen=True)
class IVCurve:
    points: tuple
    device_area_cm2: float = MESA_AREA_CM2
    temperature: float = 300.0

    def biases(self):
        return np.array([pt.bias for pt in self.points])

    def current_densities(self):
        return np.array([pt.current_density for pt in self.points])

    def to_csv(self, path, meta=None):
        j = self.current_densities()
        i = j * self.device_area_cm2
        base = {
            "device_area_cm2": self.device_area_cm2,
            "temperature_K": self.temperature,
            "all_converged": all(pt.converged for pt in self.points),
        }
        base.update(meta or {})
        dataio.write_table(
            path, [self.biases(), j, i, np.abs(i),
                   [pt.gummel_iterations for pt in self.points],
                   [pt.converged for pt in self.points]],
            ["bias_V", "J_Acm2", "I_A", "abs_I_A", "gummel_iterations", "converged"],
            meta=base)


def _degeneracy(eta, statistics):
    """(ln gamma, damping) at eta for the Gummel loop, from one F/F' pair.

    ln gamma = ln(F(eta)/e^eta) is 0 below eta = -30 and for Boltzmann
    statistics; the per-node damping F'(eta)/F(eta), clipped to [0.02, 1]
    (1 below eta = -30), keeps the lagged degeneracy fixed point contractive.
    The pair is evaluated only where eta >= -30, in one call for any shape.
    """
    eta = np.asarray(eta, dtype=float)
    ln_gamma, alpha = np.zeros_like(eta), np.ones_like(eta)
    live = eta >= -30.0
    if statistics != "boltzmann" and live.any():
        f, df = _fermi_half_pair(eta[live])
        ln_gamma[live] = np.log(f) - eta[live]
        alpha[live] = np.clip(df / f, 0.02, 1.0)
    return ln_gamma, alpha


def _two_sided_profile(start, end, increments):
    """Accumulate s_{i+1} = s_i + increments_i from whichever end loses
    less precision at each node.

    A single forward cumulative sum turns the far end into pure roundoff
    once the profile has dropped more than ~16 decades (at high bias the
    Slotboom variable spans exp(V/kT)); anchoring each node to the nearer
    boundary keeps full relative accuracy on both sides of the drop.
    """
    fwd = np.concatenate([[0.0], np.cumsum(increments)])
    bwd = np.concatenate([np.cumsum(increments[::-1])[::-1], [0.0]])
    left = start + fwd
    right = end - bwd
    afwd = np.concatenate([[0.0], np.cumsum(np.abs(increments))])
    abwd = np.concatenate([np.cumsum(np.abs(increments)[::-1])[::-1], [0.0]])
    err_left = abs(start) + afwd
    err_right = abs(end) + abwd
    return np.where(err_left <= err_right, left, right)


def _electron_integral_solve(arr, w, source, n_bc):
    """Exact 1D integration of the electron continuity equation.

    `source` holds q*(R - G)*w_ctrl per node [A/cm^2]; the element fluxes
    are J_el[i] = J_el[0] + cumsum(source[1:-1]) and the Slotboom density
    follows by summation. Returns (n, J_el); ValueError if the Slotboom
    density is not finite (at a few kelvin, exp(w/kT) leaves the float range).
    """
    x = np.diff(w) / arr.Vt
    c = constants.Q_E * arr.mu_e_el * arr.Vt / arr.h
    wref = float(np.max(w))
    expw = (w - wref) / arr.Vt
    cond = c * bernoulli(-x) * np.exp(expw[:-1])      # J = cond * (s_{i+1} - s_i)

    q_cum = np.concatenate([[0.0], np.cumsum(source[1:-1])])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = 1.0 / cond
        s0 = n_bc[0] * np.exp(min(-expw[0], 700.0))
        s_end = n_bc[1] * np.exp(min(-expw[-1], 700.0))
        j0 = (s_end - s0 - np.sum(q_cum * inv)) / np.sum(inv)
        j_el = j0 + q_cum
        s = _two_sided_profile(s0, s_end, j_el * inv)
    if not np.all(np.isfinite(s)):
        raise ValueError("the Slotboom density is not finite")
    s = np.maximum(s, 1e-300)
    n = np.exp(np.log(s) + expw)
    return n, j_el


def hole_flux(arr, v, p):
    """SG hole current density on elements (stable Slotboom form)."""
    y = np.diff(v) / arr.Vt
    c = constants.Q_E * arr.mu_h_el * arr.Vt / arr.h
    vref = float(np.max(v))
    u = p * np.exp(-(v - vref) / arr.Vt)
    return c * bernoulli(-y) * np.exp((v[:-1] - vref) / arr.Vt) * (u[:-1] - u[1:])


def _generation_profile(stack, mesh, rate):
    """Uniform generation confined to the undoped (background-doped) layers."""
    undoped = np.array([l.donor_cm3 + l.acceptor_cm3 < DOPED_CONTACT_THRESHOLD
                        for l in stack.layers])
    return rate * undoped[mesh.node_layer]


class _GummelWorkspace:
    """Mesh-resolved arrays and iteration state shared across bias steps.
    Carrier arrays are (2, N), electrons then holes, as the state rows 1:3,
    3:5 and 5:7; `sign_vt` is Vt for electrons and -Vt for holes."""

    def __init__(self, stack, mesh, arr, phi_neutral, generation, statistics):
        self.stack, self.mesh, self.arr, self.stats = stack, mesh, arr, statistics
        self.phi_neutral = phi_neutral
        self.inverse = _statistics(statistics)[3]
        self.n_states = np.stack([arr.Nc, arr.Nv])
        self.ln_states = np.log(self.n_states)
        self.edges = np.stack([arr.Ec0, arr.Ev0])
        self.sign_vt = np.array([[arr.Vt], [-arr.Vt]])
        self.c_h = constants.Q_E * arr.mu_h_el * arr.Vt / arr.h
        zero = np.zeros(mesh.n_nodes)
        n_neutral, p_neutral = carrier_densities(arr, phi_neutral, zero, zero, statistics)
        self.n_bc = (n_neutral[0], n_neutral[-1])
        self.p_bc = (p_neutral[0], p_neutral[-1])
        self.gen = _generation_profile(stack, mesh, generation)
        self.nisq = arr.Nc * arr.Nv * np.exp(-(arr.Ec0 - arr.Ev0) / arr.Vt)

        # In strongly doped regions the density is pinned to the doping, so
        # the degeneracy factor's fixed point is its charge-neutral value;
        # freezing it there removes a slowly damped flutter mode at the
        # degenerate contacts. Elsewhere it relaxes with per-node damping.
        self.free_nodes = (arr.Nd + arr.Na) < DOPED_CONTACT_THRESHOLD
        self.lng_neutral = self._ln_gamma(np.stack([n_neutral, p_neutral]))

    def _ln_gamma(self, dens):
        """ln gamma of both carriers at the densities `dens` (2, N)."""
        return _degeneracy(self.inverse(np.maximum(dens, 1e-30) / self.n_states),
                           self.stats)[0]

    def seed(self, efn, phi, n, p):
        """Iteration state at 0 V from the equilibrium Poisson solution."""
        dens = np.maximum(np.stack([n, p]), 1e-30)
        lng = np.where(self.free_nodes, self._ln_gamma(dens), self.lng_neutral)
        return np.concatenate([[phi, efn, efn], lng, np.log(dens),
                               [np.zeros(self.mesh.n_nodes)]])

    def restep(self, old, x, bias):
        """Carry a state x converged at bias `old` to a nearby `bias` (x itself
        when the two are equal)."""
        if old == bias:
            return x
        out = x.copy()
        out[0, 0] = self.phi_neutral[0]
        out[0, -1] = self.phi_neutral[-1] + bias
        out[1:3] = (np.clip(x[1:3] * (bias / old), min(0.0, -bias), max(0.0, -bias))
                    if old != 0.0 else quasi_fermi_split(self.stack, self.mesh, bias))
        return out

    def _continuity(self, x, bias, cycles):
        """Both continuity solves at the potential and degeneracy terms of
        the state x: (densities, eta, v, electron element flux), where eta
        inverts the statistics at the (2, N) densities and v is the hole
        driving potential. Electrons integrate exactly. Holes, negligible for
        the current but bounded under strong generation, take a local SG
        solve of d/dx Jp = q (G + g_rad - B n p), an M-matrix with the loss
        B n p on the diagonal and the mass-action back-generation g_rad
        explicit, capped at the thermal rate; Dirichlet rows hold the contact
        densities. A breakdown of either solve, or a density that
        ``inverse_fermi_half`` rejects (not finite, or beyond its range),
        raises NonConvergenceError naming the bias and the temperature and
        carrying `cycles`."""
        arr = self.arr
        # driving potentials w = phi - Ec0 + kT (ln Nc + ln gamma_n) and
        # v = -phi + Ev0 + kT (ln Nv + ln gamma_p); sign_vt / Vt is +1, -1
        w, v = (self.sign_vt / arr.Vt * (x[0] - self.edges)
                + arr.Vt * (self.ln_states + x[3:5]))
        src = arr.q_w * (x[7] - self.gen)
        y = np.diff(v) / arr.Vt
        bp, bm = bernoulli(y), bernoulli(-y)
        lower = -self.c_h * bm
        lower[-1] = 0.0
        upper = -self.c_h * bp
        upper[0] = 0.0
        dens = np.empty((2, v.size))
        try:
            n, jn_el = _electron_integral_solve(arr, w, src, self.n_bc)
            n = np.maximum(n, 1e-30, out=dens[0])
            loss = B_RADIATIVE * n
            g_rad = np.minimum(
                loss * np.exp(x[6]) * np.exp(np.clip((x[2] - x[1]) / arr.Vt, -500.0, 40.0)),
                B_RADIATIVE * self.nisq)
            diag = np.ones(v.size)
            diag[1:-1] = (self.c_h[1:] * bm[1:] + self.c_h[:-1] * bp[:-1]
                          + arr.q_w[1:-1] * loss[1:-1])
            rhs = arr.q_w * (self.gen + g_rad)
            rhs[0], rhs[-1] = self.p_bc
            np.maximum(_tridiag_solve(lower, diag, upper, rhs), 1e-30, out=dens[1])
            eta = self.inverse(dens / self.n_states)
        except (ValueError, LinAlgError) as exc:
            raise NonConvergenceError(
                f"transport solve broke down at V = {bias} V, "
                f"T = {self.stack.temperature} K: {exc}", gummel_cycles=cycles) from None
        return dens, eta, v, jn_el

    def iterate(self, x, bias, max_cycles, tolerance):
        """(state, cycles, last Poisson stage's |dphi|/Vt) of Anderson-mixed
        Gummel cycles from the state x at `bias`, the state a new array, the
        unmixed output of the last cycle. Raises NonConvergenceError unless,
        within `max_cycles`, a cycle's quasi-Fermi update is below
        `tolerance` and its Poisson stage reached ``NEWTON_TOLERANCE``."""
        arr, stats = self.arr, self.stats
        phi_bc = (self.phi_neutral[0], self.phi_neutral[-1] + bias)

        # maximum principle: quasi-Fermi levels stay between contact values
        ef_lo = min(0.0, -bias) - 0.1
        ef_hi = max(0.0, -bias) + 0.1
        # Boltzmann-equivalent levels reproduce the continuity densities.
        # Electron degeneracy shifts them below the physical levels by
        # kT ln(gamma) (holes: above), so their guard windows extend 0.3 eV
        # in those directions only.
        eb_lo = np.array([[ef_lo - 0.3], [ef_lo - 0.05]])
        eb_hi = np.array([[ef_hi + 0.05], [ef_hi + 0.3]])

        # Cycle inputs x and outputs g, one row each: phi, efn, efp, lng_n,
        # lng_p, ln n, ln p, recomb. The first five rows, with phi, efn and
        # efp over Vt, form the fixed-point residual g - x. Type-II Anderson
        # mixing combines the last ANDERSON_DEPTH differences of residuals
        # and of outputs into the next input; it also damps the flip-flop of
        # the explicit recombination term at generation-recombination
        # balance, so recomb needs no relaxation of its own.
        g = np.empty_like(x)
        g_prev = np.empty_like(x)
        scale = np.array([1.0 / arr.Vt] * 3 + [1.0] * 2)[:, None]
        d_f = np.empty((ANDERSON_DEPTH, 5 * x.shape[1]))
        d_g = np.empty((ANDERSON_DEPTH, x.size))
        f_prev = None
        depth = slot = 0
        stage_tolerance = NEWTON_TOLERANCE

        for cycles in range(1, max_cycles + 1):
            dens, eta_raw, _, _ = self._continuity(x, bias, cycles)
            band = self.edges - x[0]
            ef_t = np.clip(band + self.sign_vt * eta_raw, ef_lo, ef_hi)
            lng_t, alpha = _degeneracy((ef_t - self.edges + x[0]) / self.sign_vt, stats)
            g[3:5] = np.clip(x[3:5] + alpha * self.free_nodes * (lng_t - x[3:5]),
                             -60.0, 0.0)

            # The Gummel loop iterates in Boltzmann-equivalent quasi-Fermi
            # levels (the Poisson stage runs Boltzmann statistics); in those
            # variables the continuity <-> Poisson transfer has zero gain in
            # quasi-neutral regions regardless of degeneracy. The physical
            # Fermi-Dirac behaviour enters through the lagged degeneracy terms
            # lng_n/lng_p of the driving potentials.
            ef_b = np.clip(band + self.sign_vt * np.log(dens / self.n_states), eb_lo, eb_hi)
            phi_new, n, p, _, ok, newton_update = _solve_poisson(
                arr, *ef_b, phi_bc, x[0], "boltzmann", stage_tolerance)
            if not ok:
                raise NonConvergenceError(
                    f"Poisson stage failed inside Gummel cycle {cycles} at V = {bias} V",
                    gummel_cycles=cycles)
            dens = np.maximum(np.stack([n, p]), 1e-30)
            g[0], g[1:3], g[5:7] = phi_new, ef_t, np.log(dens)
            g[7] = B_RADIATIVE * dens[0] * dens[1] * (
                1.0 - np.exp(np.clip((ef_t[1] - ef_t[0]) / arr.Vt, -500.0, 500.0)))

            # a quasi-Fermi level only matters where its carrier is present
            qf_update = np.max(np.abs(ef_t - x[1:3]), where=dens > QF_DENSITY_FLOOR,
                               initial=0.0)
            if qf_update < tolerance and newton_update < NEWTON_TOLERANCE:
                break
            # inexact Poisson stage: the next one is solved only as tightly
            # as this cycle's quasi-Fermi update warrants
            stage_tolerance = max(NEWTON_TOLERANCE, STAGE_FORCING * qf_update / arr.Vt)

            f = ((g[:5] - x[:5]) * scale).ravel()
            if f_prev is not None:
                d_f[slot] = f - f_prev
                d_g[slot] = (g - g_prev).ravel()
                slot = (slot + 1) % ANDERSON_DEPTH
                depth = min(depth + 1, ANDERSON_DEPTH)
            f_prev = f
            g_prev[:] = g
            x = g.copy()
            if depth:
                # least-squares coefficients from the depth x depth normal equations
                gamma = np.linalg.lstsq(d_f[:depth] @ d_f[:depth].T,
                                        d_f[:depth] @ f, rcond=None)[0]
                x -= (gamma @ d_g[:depth]).reshape(x.shape)
                if not np.all(np.isfinite(x)):
                    depth = slot = 0
                    x[:] = g
        else:
            raise NonConvergenceError(f"Gummel iteration did not converge in {max_cycles} "
                                      f"cycles at V = {bias} V", gummel_cycles=max_cycles)
        return g, cycles, newton_update

    def finalize(self, x, bias):
        """Final continuity pass; fluxes and densities for reporting."""
        (n, p), eta, v, jn_el = self._continuity(x, bias, 0)
        efn, efp = self.edges - x[0] + self.sign_vt * eta
        return n, p, efn, efp, jn_el + hole_flux(self.arr, v, p)


def solve_drift_diffusion(stack, mesh, bias, generation=0.0, statistics="fermi"):
    """Self-consistent drift-diffusion solve at one bias point: a one-bias
    `iv_sweep` that returns (BandDiagram, IVPoint) and raises its
    NonConvergenceError, which carries the Gummel cycles run before it.

    `generation` [cm^-3 s^-1] is uniform in the undoped layers; `statistics`
    is "fermi" or "boltzmann".
    """
    ((_, result),) = _iv_sweep(stack, mesh, [bias], generation, statistics)
    if isinstance(result, NonConvergenceError):
        raise result
    return result


def _current_scale(arr):
    """q n_max mu_max kT/q / L, the natural current-density scale."""
    L = arr.x[-1] - arr.x[0]
    return (constants.Q_E * float(np.max(arr.Nd)) * float(np.max(arr.mu_e_el))
            * arr.Vt / L)


def detailed_balance_floor(stack, mesh, factor=1e-15):
    """Zero-current floor: factor * q n_max mu_max (kT/q) / L."""
    arr = build_device_arrays(stack, mesh)
    return factor * _current_scale(arr)


def iv_sweep(stack, mesh, biases, generation=0.0, statistics="fermi"):
    """IV curve over `biases`, returned in the given order.

    Raises ValueError, before anything is solved, naming the first bias
    that is not finite or lies outside the +/-5 V sanity bound. Each
    distinct bias is solved once (see the module docstring). A failed
    point is recorded on its IVPoint (current NaN, the Gummel cycles
    actually run) without aborting the sweep.
    """
    solved = {}
    for bias, result in _iv_sweep(stack, mesh, biases, generation, statistics):
        solved[bias] = result[1] if isinstance(result, tuple) else IVPoint(
            bias=bias, current_density=math.nan, converged=False,
            gummel_iterations=result.gummel_cycles, continuity_error=math.nan)
    return IVCurve(points=tuple(solved[b] for b in biases), temperature=stack.temperature)


def _iv_sweep(stack, mesh, biases, generation, statistics):
    """(bias, (BandDiagram, IVPoint) or NonConvergenceError) for each
    distinct bias, in the order they are solved."""
    _check_biases(biases)
    arr, phi_n, solve = _set_up(stack, mesh, statistics)
    efn, phi_eq, n, p, history, ok, update = solve(0.0, phi_n)
    if not ok:
        exc = NonConvergenceError(
            f"equilibrium Poisson solve did not converge in {len(history)} iterations "
            f"(last scaled update {update:.3e})", history)
        yield from ((bias, exc) for bias in sorted(set(biases)))
        return
    ws = _GummelWorkspace(stack, mesh, arr, phi_n, generation, statistics)
    spent = 0                   # Gummel cycles run since the last point was solved

    def rung(v, start, final):
        nonlocal spent
        limits = ((MAX_GUMMEL, QF_TOLERANCE) if final
                  else (MAX_GUMMEL_CONTINUATION, QF_TOLERANCE_CONTINUATION))
        try:
            x, cycles, update = ws.iterate(ws.restep(*start, v), v, *limits)
            spent += cycles
            if not final:
                return x, None
            n, p, efn, efp, j_el = ws.finalize(x, v)
        except NonConvergenceError as exc:
            spent += exc.gummel_cycles
            return None, exc
        # device sign convention: positive gate voltage -> positive current
        j_total = -j_el
        j_mean = float(np.mean(j_total))
        scale = max(abs(j_mean), 1e-15 * _current_scale(arr))
        continuity = (float(np.max(np.abs(np.diff(j_total))) / scale)
                      if j_total.size > 1 else 0.0)
        return x, (_make_diagram(stack, mesh, arr, x[0], n, p, efn, efp, v, True, update),
                   IVPoint(bias=v, current_density=j_mean, gummel_iterations=spent,
                           converged=True, continuity_error=continuity))

    for bias, result in _walk(biases, ws.seed(efn, phi_eq, n, p), rung, CONTINUATION_STEP):
        if isinstance(result, NonConvergenceError):
            result.gummel_cycles = spent
        yield bias, result
        spent = 0
