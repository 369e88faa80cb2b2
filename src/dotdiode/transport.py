"""1D drift-diffusion current solver: a coupled Newton rung for dark
sweeps, a Gummel loop under generation, Scharfetter-Gummel (SG) fluxes in
both.

The electron flux between nodes i and i+1 is

    J = (q mu kT / h) [n_{i+1} B(dw/kT) - n_i B(-dw/kT)],   B(x) = x/(e^x - 1)

where dw is the difference of the driving potential w = phi - Ec0 +
kT ln Nc + kT ln(F12(eta)/e^eta). The last two terms extend the textbook
discretization to heterojunction band steps and Fermi-Dirac degeneracy;
for a uniform non-degenerate device w reduces to the electrostatic
potential and the scheme is the classical one. In the doped contact layers
the degeneracy term keeps its charge-neutral value: the Gummel loop froze
it there to remove a flutter mode, and the reference IV curves pin the
solution it gives (freeing it moves the dark current by 4 %).

A dark sweep (``generation == 0``) solves Poisson and both continuity
equations together, by Newton's method (``_NewtonWorkspace``). The
unknowns are E_Fp, phi and E_Fn over kT and the electron flux of each
element, in band order; the Jacobian is one (4, 5)-banded system,
row-equilibrated and factorised by LAPACK ``dgbtrf`` from scipy's ``_flapack``
(see electrostatics). The flux unknowns, tied node to node by conservation,
give the charge of a quantum-dot layer between two barriers from the current
through them even when the barriers conduct 1e-40 of the dot. Each step
evaluates F_1/2 once (no inverse) and is damped after Bank & Rose (Numer.
Math. 37, 279 (1981)): an eta change d is taken as sign(d) ln(1 + |d|), and
the step is halved until its simplified Newton correction is no longer than
itself (Deuflhard's natural monotonicity test). A rung has one exit: a step,
from a fresh factorisation, whose potential update is below
``NEWTON_TOLERANCE`` thermal voltages and whose quasi-Fermi update, where
the carrier density exceeds ``QF_DENSITY_FLOOR``, is below
``QF_TOLERANCE``; that step is taken whole. A rung fails after
``NEWTON_MAX_ITERATIONS`` steps or when no halving helps. The 0 V rung
starts from the Fermi-Dirac equilibrium potential at flat levels and zero
flux, and solves the statistics of the rung from there.
A rung's start and iterates keep their levels in the contact window,
which without generation holds the solution (maximum principle); a level
where its carrier is absent otherwise runs off.

Under generation the photogenerated holes have no contact, so that window
no longer holds them. There the Gummel loop below stays: both lit
references (``tests/golden/iv_lit.csv``, ``perfbench/reference/iv_lit.csv``)
pin its answer, whose Poisson stage sees holes clipped to the window. The
change that re-pins them (ROADMAP item 3 step 1) deletes the loop. Each
bias point alternates a Scharfetter-Gummel continuity solve for the
carrier densities with a nonlinear Poisson solve at frozen quasi-Fermi
levels until the quasi-Fermi update drops below tolerance. The degeneracy
term is iterated with a per-node damping factor F'(eta)/F(eta), which
keeps the fixed-point iteration contractive even at the strongly
degenerate quantum-well layer.

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

The Newton rung reports the state it solved: its densities and levels, and
as current its electron flux unknowns minus the Slotboom hole flux, which
vanishes with the quasi-Fermi difference, so that zero bias gives rounding
of flat levels, far below ``detailed_balance_floor``. The Gummel loop
reports its last continuity pass. In one dimension the steady-state
electron continuity equation integrates exactly: the element fluxes are
one unknown plus the cumulative recombination / generation sources, and
the Slotboom density s = n exp(-w/kT) follows by two-sided cumulative
summation (each node anchored to the nearer contact, which preserves
relative accuracy across the exp(V/kT) span of s at high bias). Discrete
current continuity of the electrons then holds to machine precision by
construction. Holes, which carry negligible current here but must stay
bounded under strong generation, use a conventional tridiagonal SG solve
with the recombination loss implicit (``_hole_solve``).

Direct radiative recombination with a single constant coefficient is the
only recombination channel, written in its quasi-Fermi form
R = B_rad n p [1 - exp((E_Fp - E_Fn)/kT)] so that it vanishes identically
at equilibrium under any carrier statistics (it reduces to the textbook
B (np - ni^2) in the Boltzmann limit). The default B_rad = 1e-10 cm^3/s
keeps the minority-carrier accumulation of a recombination-free model
bounded without touching the V = 0 detailed balance. An optional uniform
generation rate in the undoped layers models above-band illumination
phenomenologically.

``iv_sweep`` hands the walk of the ``electrostatics`` module docstring the
Newton rung in the dark or the Gummel rung under generation; both answer
iterate(x, bias, final) from the walk's start state x, and finalize(x,
bias) with the element current of a solved state.
The Gummel state is one (8, N) array of the cycle map's rows (potential,
quasi-Fermi levels, degeneracy terms, ln n, ln p, recombination rate),
seeded by the 0 V Poisson solution, which the secant predictor
extrapolates directly. A
Gummel rung iterates to the loose ``QF_TOLERANCE_CONTINUATION`` within
``MAX_GUMMEL_CONTINUATION`` cycles before a bias of the sweep, and to
``QF_TOLERANCE`` within ``MAX_GUMMEL`` at it; a Newton rung always to its
full tolerances. A point counts the iterations run since the previous
point, Newton steps or Gummel cycles, in ``IVPoint.gummel_iterations``.

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
import sys
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from . import constants, dataio
from .device import DOPED_CONTACT_THRESHOLD
from .electrostatics import (
    NEWTON_MAX_ITERATIONS, NEWTON_TOLERANCE, NonConvergenceError,
    build_device_arrays,
    carrier_densities,
    _fermi_half_pair, _solve_poisson, _tridiag_solve, _statistics,
    _check_biases, _set_up, _walk, _flapack,
)
dgbtrf, dgbtrs = _flapack.dgbtrf, _flapack.dgbtrs
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
DETAILED_BALANCE_FACTOR = 1e-15     # zero-current floor, of the current scale
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
            ["bias_V", "J_Acm2", "I_A", "abs_I_A", "iterations", "converged"],
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


def _hole_solve(arr, c_h, y, loss, rhs, p_ends):
    """p of the SG solve of d/dx Jp = q (source - loss p), an
    M-matrix: `c_h` is q mu_h kT / h, y the hole driving-potential steps over
    kT, `rhs` the source times q w (its ends become `p_ends`, the Dirichlet
    rows' contact densities). Raises as ``_tridiag_solve`` does."""
    bp, bm = bernoulli(y), bernoulli(-y)
    lower, upper = -c_h * bm, -c_h * bp
    lower[-1] = upper[0] = 0.0
    diag = np.ones(y.size + 1)
    diag[1:-1] = c_h[1:] * bm[1:] + c_h[:-1] * bp[:-1] + arr.q_w[1:-1] * loss[1:-1]
    rhs[[0, -1]] = p_ends
    return _tridiag_solve(lower, diag, upper, rhs)


def _broke_down(stack, bias, exc, iterations):
    """NonConvergenceError for a rung that broke down with `exc` at `bias`."""
    return NonConvergenceError(f"transport solve broke down at V = {bias} V, "
                               f"T = {stack.temperature} K: {exc}", iterations=iterations)


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
        self.stack, self.arr, self.stats = stack, arr, statistics
        self.phi_neutral = phi_neutral
        self.inverse = _statistics(statistics)[3]
        self.n_states = np.stack([arr.Nc, arr.Nv])
        self.ln_states = np.log(self.n_states)
        self.edges = np.stack([arr.Ec0, arr.Ev0])
        self.sign_vt = np.array([[arr.Vt], [-arr.Vt]])
        self.c_h = constants.Q_E * arr.mu_h_el * arr.Vt / arr.h
        n_neutral, p_neutral = carrier_densities(arr, phi_neutral, 0.0, 0.0, statistics)
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
                               [np.zeros_like(phi)]])

    def _continuity(self, x, bias, cycles):
        """Both continuity solves at the potential and degeneracy terms of
        the state x: (densities, eta, v, electron element flux), where eta
        inverts the statistics at the (2, N) densities and v is the hole
        driving potential. Electrons integrate exactly; holes take
        ``_hole_solve`` with the source G + g_rad, the mass-action
        back-generation g_rad explicit and capped at the thermal rate. A
        breakdown of either solve, or a density that ``inverse_fermi_half``
        rejects (not finite, or beyond its range), raises ``_broke_down``."""
        arr = self.arr
        # driving potentials w = phi - Ec0 + kT (ln Nc + ln gamma_n) and
        # v = -phi + Ev0 + kT (ln Nv + ln gamma_p); sign_vt / Vt is +1, -1
        w, v = (self.sign_vt / arr.Vt * (x[0] - self.edges)
                + arr.Vt * (self.ln_states + x[3:5]))
        src = arr.q_w * (x[7] - self.gen)
        dens = np.empty((2, v.size))
        try:
            n, jn_el = _electron_integral_solve(arr, w, src, self.n_bc)
            n = np.maximum(n, 1e-30, out=dens[0])
            loss = B_RADIATIVE * n
            # a product that overflows to inf is capped at the thermal rate
            with np.errstate(over="ignore"):
                g_rad = np.minimum(
                    loss * np.exp(x[6]) * np.exp(np.clip((x[2] - x[1]) / arr.Vt, -500.0, 40.0)),
                    B_RADIATIVE * self.nisq)
            p = _hole_solve(arr, self.c_h, np.diff(v) / arr.Vt, loss,
                            arr.q_w * (self.gen + g_rad), self.p_bc)
            np.maximum(p, 1e-30, out=dens[1])
            eta = self.inverse(dens / self.n_states)
        except (ValueError, LinAlgError) as exc:
            raise _broke_down(self.stack, bias, exc, cycles) from None
        return dens, eta, v, jn_el

    def iterate(self, x, bias, final):
        """(state, cycles) of Anderson-mixed Gummel cycles from the state x at
        `bias`, the state a new array, the unmixed output of the last cycle.
        Raises NonConvergenceError unless, within ``MAX_GUMMEL`` cycles, a
        cycle's quasi-Fermi update is below ``QF_TOLERANCE`` and its Poisson
        stage reached ``NEWTON_TOLERANCE``; a rung that is not `final` uses the
        continuation pair of limits."""
        arr, stats = self.arr, self.stats
        max_cycles, tolerance = ((MAX_GUMMEL, QF_TOLERANCE) if final
                                 else (MAX_GUMMEL_CONTINUATION, QF_TOLERANCE_CONTINUATION))
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
                raise _broke_down(self.stack, bias,
                                  f"Poisson stage failed inside Gummel cycle {cycles}", cycles)
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
                                      f"cycles at V = {bias} V", iterations=max_cycles)
        return g, cycles

    def finalize(self, x, bias):
        """Element flux of the state x, by a final continuity pass."""
        (_, p), _, v, jn_el = self._continuity(x, bias, 0)
        return jn_el + hole_flux(self.arr, v, p)


def _bernoulli_slope(x, b, b_minus):
    """B'(x) = B(x) (1 - B(-x)) / x from b = B(x) and b_minus = B(-x), by its
    series -1/2 + x/6 - x^3/180 for |x| < 1e-4, where bernoulli switches too."""
    small = np.abs(x) < 1e-4
    slope = b * (1.0 - b_minus) / np.where(small, 1.0, x)
    xc = x[small]
    slope[small] = -0.5 + xc / 6.0 - xc ** 3 / 180.0
    return slope


# The Newton rung's unknowns at node i sit at 4 i + (_P, _PHI, _N, _J) of the
# interleaved vector, and its equations in the same slots (hole continuity,
# Poisson, electron conservation, electron flux of element i). In this order
# every coupling lies within 4 places below and 5 above the diagonal.
_P, _PHI, _N, _J = range(4)
_QF = slice(_N, None, -2)                  # rows E_Fn, E_Fp: electrons, holes
_KL, _KU = 4, 5
_SIGN = np.array([[1.0], [-1.0]])          # electrons, holes
_FLUX_UNIT = math.sqrt(sys.float_info.min)   # A/cm^2, unit of the flux unknowns


class _NewtonWorkspace:
    """The Newton rung of the module docstring, for one device and mesh.

    In the statistics of the Gummel loop's fixed point, n = Nc e^eta gamma
    with gamma = F12(eta)/e^eta in the undoped layers and its charge-neutral
    value in the doped ones, so that n = e^{w/kT} e^{E_Fn/kT} everywhere and
    the SG flux is exactly (q mu kT / h) B(-dw/kT) n_i expm1(dE_Fn/kT): it
    vanishes with the quasi-Fermi difference instead of cancelling two large
    terms. Balancing those fluxes node by node, without flux unknowns, left
    the charge of the quantum-dot layer to rounding below about 180 K. The
    flux unknowns are J in units of ``_FLUX_UNIT``, so that currents down
    to a barrier's conductance at 30 K keep their digits in the
    factorisation.

    The state handed to the walk is the unknowns in band order, one (4, N)
    array: E_Fp, phi, E_Fn (V) and the element fluxes J (A/cm^2, the last
    entry unused). ``_jacobian`` returns the Jacobian as one (equation,
    neighbour, unknown, node) array; ``_step`` scatters its ``slots``, the
    (equation, neighbour, unknown) entries it can make nonzero, into the band.
    """

    def __init__(self, stack, arr, phi_neutral, statistics):
        self.stack, self.arr, self.phi_neutral = stack, arr, phi_neutral
        self.pair = _statistics(statistics)[2]
        self.fermi = statistics != "boltzmann"
        vt = arr.Vt
        self.n_states = np.stack([arr.Nc, arr.Nv])
        self.eta0 = np.stack([-arr.Ec0 / vt, arr.Ev0 / vt])
        self.w0 = np.log(self.n_states) + self.eta0
        self.c = np.stack([arr.mu_e_el, arr.mu_h_el]) * (constants.Q_E * vt / arr.h)
        self.nisq = arr.Nc * arr.Nv * np.exp(-(arr.Ec0 - arr.Ev0) / vt)
        self.doped = np.broadcast_to((arr.Nd + arr.Na) >= DOPED_CONTACT_THRESHOLD,
                                     self.eta0.shape)
        self.lng_base = np.where(self.doped, _degeneracy(self.eta0 + _SIGN * phi_neutral / vt,
                                                         statistics)[0], 0.0)

        # the slots [e, s, u] (12 an equation) that ``_jacobian`` writes: at NaN
        # terms each entry it computes is NaN, and only structural zeros stay 0
        nan = np.full((2, arr.x.size), np.nan)
        probe = self._jacobian((nan,) * 3 + (nan[:, 1:],) * 3 + (nan[0], None))
        self.slots = np.flatnonzero(probe.any(axis=-1))
        bounds = np.searchsorted(self.slots, 12 * np.arange(5))
        self.rows = [slice(*bounds[e:e + 2]) for e in range(4)]    # each equation's slots
        # slot [e, s, u] at node i is A[r, c], r = 4 i + e and c = 4 (i + s - 1) + u,
        # at band[kl + ku + r - c, c] of the band flattened column by column (the
        # ordering keeps r - c in it); c outside the matrix goes to a spare entry
        self.ld, size, i = 2 * _KL + _KU + 1, 4 * arr.x.size, np.arange(arr.x.size)
        e, s, u = (k[:, None] for k in np.unravel_index(self.slots, (4, 3, 4)))
        row, col = 4 * i + e, 4 * (i + s - 1) + u
        self.index = np.where((col >= 0) & (col < size), self.ld * col + _KL + _KU + row - col,
                              self.ld * size)
        self.band = np.zeros(self.ld * size + 1)          # refilled and factorised each step
        self.unit = np.array([vt, vt, vt, _FLUX_UNIT])[:, None]   # of the scaled unknowns

    def _fermi_dirac(self, eta):
        """(F, F', ln gamma, d ln gamma / d eta) at eta (2, N) in the statistics
        above, from one pair call; ln gamma = ln(F / e^eta) is 0 below
        eta = -30, as in ``_degeneracy``."""
        f, df = self.pair(eta)
        lng, dlng = self.lng_base.copy(), np.zeros_like(eta)
        if self.fermi:
            live = (eta >= -30.0) & ~self.doped
            np.subtract(np.log(f, out=lng, where=live), eta, out=lng, where=live)
            np.subtract(np.divide(df, f, out=dlng, where=live), 1.0, out=dlng, where=live)
        np.exp(np.minimum(eta + lng, 700.0), out=f, where=self.doped)
        np.copyto(df, f, where=self.doped)
        return f, df, lng, dlng

    @staticmethod
    def seed(phi):
        """The 0 V state: flat quasi-Fermi levels, no current, and the
        Fermi-Dirac equilibrium potential `phi`, from which the 0 V rung
        solves these statistics."""
        x = np.zeros((4, phi.size))
        x[_PHI] = phi
        return x

    def _residual(self, z):
        """Residual (4, N) of the scaled unknowns z (4, N) and the terms its
        Jacobian and ``finalize`` reuse, the element fluxes (A/cm^2) last."""
        arr = self.arr
        eta = self.eta0 + _SIGN * (z[_PHI] + z[_QF])
        f, df, lng, dlng = self._fermi_dirac(eta)
        dens, ddens = self.n_states * f, self.n_states * df
        n, p = dens
        x = np.diff(self.w0 + _SIGN * z[_PHI] + lng, axis=1)
        b_minus = bernoulli(-x)
        em = np.expm1(np.diff(_SIGN * z[_QF], axis=1))
        flux = self.c * b_minus * dens[:, :-1] * em
        gg = self.nisq * np.exp(lng[0] + lng[1])
        rq_w = arr.q_w[1:-1] * B_RADIATIVE * (n * p - gg)[1:-1]
        field = arr.cond * np.diff(z[_PHI]) * arr.Vt
        r = np.empty_like(z)
        r[_P, 1:-1] = np.diff(flux[1]) - rq_w
        r[_PHI, 1:-1] = np.diff(field) + arr.q_w[1:-1] * (p - n + arr.Nd - arr.Na)[1:-1]
        r[_N, 1:-1] = np.diff(z[_J, :-1]) - rq_w / _FLUX_UNIT
        r[_J, :-1] = flux[0] / _FLUX_UNIT - z[_J, :-1]
        r[_J, -1] = z[_J, -1]
        r[:_J, [0, -1]] = z[:_J, [0, -1]] - self.bc
        return r, (dens, ddens, dlng, x, b_minus, em, gg, flux)

    def _jacobian(self, terms):
        """The Jacobian at the terms ``_residual`` returned, as one array
        (equation, neighbour, unknown, node): entry [e, s, u, i] is the slope
        of equation e at node i along unknown u at node i + s - 1. It writes
        only the ``slots`` [e, s, u]; the rest are structural zeros, which
        ``_step`` does not scatter.

        The recombination source of the electron conservation rows is taken
        as it stands, without its derivative: in the dark it is some 20
        orders below the flux, and its derivative, in units of
        ``_FLUX_UNIT``, would outweigh the flux terms of those rows."""
        arr = self.arr
        dens, ddens, dlng, x, b_minus, em, gg, _ = terms
        # the flux of element i is c B(-x) m_i expm1(dsigma), m the density;
        # its slopes along w_i+1 - w_i, sigma_i+1 - sigma_i (signs _SIGN) and m_i
        cb = self.c * b_minus
        along_w = -self.c * _bernoulli_slope(-x, b_minus, b_minus - x) * dens[:, :-1] * em
        along_sigma = _SIGN * (cb * dens[:, :-1] * (em + 1.0))
        along_m = _SIGN * cb * em
        # eta, ln gamma and w move with a pair of unknowns, [phi, E_Fn] and [E_Fp,
        # phi]; the flux slopes along it at node i + 1 and at node i (their
        # quasi-Fermi entries [0, 1] and [1, 0] are rows 1:3 when flattened)
        d_w = _SIGN[:, :, None] * (np.eye(2)[:, :, None] + dlng[:, None])   # d w / du over kT
        to_right = along_w[:, None] * d_w[..., 1:]
        to_own = (along_m * ddens[:, :-1])[:, None] - along_w[:, None] * d_w[..., :-1]
        to_right.reshape(4, -1)[1:3] += along_sigma
        to_own.reshape(4, -1)[1:3] -= along_sigma
        # slopes of n p - gg (R / B) and of p - n along E_Fp, phi and E_Fn
        d_np, d_charge = (np.stack([a[1], a[0] + a[1], a[0]])[:, 1:-1]
                          for a in (_SIGN * (dens[::-1] * ddens - gg * dlng), -ddens))

        jac = np.zeros((4, 3, 4, dens.shape[1]))
        # the hole, Poisson and electron conservation rows, Dirichlet at the ends
        left, mid, right = (jac[:_J, s, :, 1:-1] for s in range(3))
        right[_P, :_N] = to_right[1, :, 1:]
        left[_P, :_N] = -to_own[1, :, :-1]
        mid[_P, :_N] = to_own[1, :, 1:] - to_right[1, :, :-1]
        mid[_P, :_J] -= d_np * (arr.q_w[1:-1] * B_RADIATIVE)
        cv = arr.cond * arr.Vt
        right[_PHI, _PHI], left[_PHI, _PHI] = cv[1:], cv[:-1]
        mid[_PHI, :_J] = d_charge * arr.q_w[1:-1]
        mid[_PHI, _PHI] -= cv[1:] + cv[:-1]
        mid[_N, _J], left[_N, _J] = 1.0, -1.0
        for end in (0, -1):
            jac[:_J, 1, :_J, end] = np.eye(3)
        # the electron flux rows, and the unused flux unknown's unit row
        jac[_J, 2, _PHI:_J, :-1] = to_right[0] / _FLUX_UNIT
        jac[_J, 1, _PHI:_J, :-1] = to_own[0] / _FLUX_UNIT
        jac[_J, 1, _J, :-1], jac[_J, 1, _J, -1] = -1.0, 1.0
        return jac

    def _step(self, r, terms):
        """Newton step of the scaled unknowns for residual r: the ``slots`` of
        ``_jacobian``, each row divided by its largest magnitude, are scattered
        into the zeroed band, which ``dgbtrf`` factorises in place; the step is
        ``_correction``'s from those factors, which stay. Raises
        NonConvergenceError if a row is zero or not finite, or the step is not finite."""
        jac = self._jacobian(terms).reshape(-1, r.shape[1])[self.slots]
        scale = 1.0 / np.stack([np.abs(jac[rows]).max(axis=0) for rows in self.rows])
        if not np.all(np.isfinite(scale)):
            raise NonConvergenceError("the Newton Jacobian has a zero or non-finite row")
        for rows, row_scale in zip(self.rows, scale):
            jac[rows] *= row_scale
        self.band.fill(0.0)
        self.band[self.index] = jac
        lu, piv, info = dgbtrf(self.band[:-1].reshape(-1, self.ld).T, _KL, _KU, overwrite_ab=1)
        self.factors, self.scale = (lu, piv), scale.T.ravel()
        step = self._correction(r)
        if info != 0 or not np.all(np.isfinite(step)):
            raise NonConvergenceError("the Newton step is singular or not finite")
        return step

    def _correction(self, r):
        """The step the last factorisation gives for residual r: Deuflhard's
        simplified Newton correction."""
        lu, piv = self.factors
        step, _ = dgbtrs(lu, _KL, _KU, -(r.T.ravel() * self.scale)[:, None], piv,
                         overwrite_b=1)
        return step[:, 0].reshape(-1, 4).T

    @np.errstate(all="ignore")            # a state that overflows fails the checks
    def iterate(self, x, bias, final):
        """(state, Newton steps) at `bias` from the state x.

        Each step is factorised afresh. A step that changes eta by d is taken
        as sign(d) ln(1 + |d|), which is d to second order and the density
        change its linearisation predicts, e^d - 1 ~ d, at large d. The rung's
        one exit is a step whose potential update is below
        ``NEWTON_TOLERANCE`` thermal voltages and whose quasi-Fermi update,
        where the carrier density exceeds ``QF_DENSITY_FLOOR``, is below
        ``QF_TOLERANCE``, `final` or not: it is taken whole. Any other step is
        halved until its simplified correction, in the same norm, is no longer
        than itself (Deuflhard's natural monotonicity test). Raises
        NonConvergenceError, carrying the steps run, when 30 halvings fail, the
        Jacobian breaks down, or ``NEWTON_MAX_ITERATIONS`` steps pass.
        """
        vt = self.arr.Vt
        # without generation the levels keep between their contact values
        # (maximum principle): a start and every iterate are held there, as
        # a level where its carrier is absent could otherwise run off
        window = min(0.0, -bias) / vt, max(0.0, -bias) / vt

        def clipped(z):
            np.clip(z[_QF], *window, out=z[_QF])
            return z

        z = clipped(x / self.unit)
        self.bc = np.array([[0.0, -bias], [self.phi_neutral[0], self.phi_neutral[-1] + bias],
                            [0.0, -bias]]) / vt
        r, terms = self._residual(z)
        for steps in range(1, NEWTON_MAX_ITERATIONS + 1):
            try:
                dz = self._step(r, terms)
            except NonConvergenceError as exc:
                raise _broke_down(self.stack, bias, exc, steps) from None
            counted, done = self._measure(dz, terms[0])
            size = np.linalg.norm(dz * counted)
            deta = _SIGN * (dz[_QF, 1:-1] + dz[_PHI, 1:-1])
            dz[_QF, 1:-1] += _SIGN * (np.sign(deta) * np.log1p(np.abs(deta)) - deta)
            if done:
                return clipped(z + dz) * self.unit, steps
            t = 1.0
            for _ in range(30):
                trial = clipped(z + t * dz)
                r_new, terms_new = self._residual(trial)
                if np.linalg.norm(self._correction(r_new) * counted) <= size:
                    break
                t *= 0.5
            else:
                raise _broke_down(self.stack, bias,
                                  "no damped step reduced the Newton correction", steps)
            z, r, terms = trial, r_new, terms_new
        raise NonConvergenceError(f"Newton iteration did not converge in {steps} steps at "
                                  f"V = {bias} V, T = {self.stack.temperature} K",
                                  iterations=steps)

    def _measure(self, dz, dens):
        """(counted, whether the step dz meets both tolerances) at densities
        `dens`: counted is 1 where an update counts towards convergence, the
        potential and a quasi-Fermi level where its carrier density exceeds
        ``QF_DENSITY_FLOOR``, and 0 elsewhere."""
        counted = np.ones((4, dens.shape[1]))
        counted[_QF] = dens > QF_DENSITY_FLOOR
        counted[_J] = 0.0
        update = float(np.max(np.abs(dz[_PHI])))
        qf_update = self.arr.Vt * float(np.max(np.abs(dz[_QF]), where=counted[_QF] > 0,
                                               initial=0.0))
        return counted, update < NEWTON_TOLERANCE and qf_update < QF_TOLERANCE

    @np.errstate(all="ignore")            # a state that overflows fails the check
    def finalize(self, x, bias):
        """Electron plus hole element flux of the state x: the flux unknowns
        minus the Slotboom hole flux ``_residual`` computes there. Raises
        NonConvergenceError if the current is not finite."""
        flux = self._residual(x / self.unit)[1][-1]
        j = x[_J, :-1] - flux[1]
        if not np.all(np.isfinite(j)):
            raise _broke_down(self.stack, bias, "the current is not finite", 0)
        return j


def _current_scale(arr):
    """q max(N_D mu_e, N_A mu_h) kT/q / L, each density and mobility its
    maximum over the stack: the natural current-density scale, 0 undoped."""
    L = arr.x[-1] - arr.x[0]
    return max(constants.Q_E * float(np.max(arr.Nd)) * float(np.max(arr.mu_e_el)) * arr.Vt / L,
               constants.Q_E * float(np.max(arr.Na)) * float(np.max(arr.mu_h_el)) * arr.Vt / L)


def detailed_balance_floor(stack, mesh):
    """Zero-current floor: ``DETAILED_BALANCE_FACTOR`` times ``_current_scale``."""
    return DETAILED_BALANCE_FACTOR * _current_scale(build_device_arrays(stack, mesh))


def iv_sweep(stack, mesh, biases, generation=0.0, statistics="fermi"):
    """IV curve over `biases`, returned in the given order.

    Raises ValueError, before anything is solved, naming the first bias
    that is not finite or lies outside the +/-5 V sanity bound, or a
    `generation` that is not finite and >= 0. Each distinct bias is solved
    once (see the module docstring). A failed point is recorded on its
    IVPoint (current NaN, the iterations actually run) without aborting
    the sweep. `generation` [cm^-3 s^-1] is uniform in the undoped layers;
    `statistics` is "fermi" or "boltzmann".
    """
    solved = {}
    for bias, result in _iv_sweep(stack, mesh, biases, generation, statistics):
        solved[bias] = result if isinstance(result, IVPoint) else IVPoint(
            bias=bias, current_density=math.nan, converged=False,
            gummel_iterations=result.iterations, continuity_error=math.nan)
    return IVCurve(points=tuple(solved[b] for b in biases), temperature=stack.temperature)


def _iv_sweep(stack, mesh, biases, generation, statistics):
    """(bias, IVPoint or NonConvergenceError) for each distinct bias, in
    the order they are solved; the error's `iterations` counts the steps or
    cycles run since the previous point."""
    _check_biases(biases)
    if not 0.0 <= generation < math.inf:
        raise ValueError(f"generation must be finite and >= 0, not {generation} cm^-3 s^-1")
    arr, phi_n, solve = _set_up(stack, mesh, statistics)
    efn, phi_eq, n, p, history, ok, update = solve(0.0, phi_n)
    if not ok:
        exc = NonConvergenceError(
            f"equilibrium Poisson solve did not converge in {len(history)} iterations "
            f"(last scaled update {update:.3e})", history)
        yield from ((bias, exc) for bias in sorted(set(biases)))
        return
    if generation == 0.0:
        ws = _NewtonWorkspace(stack, arr, phi_n, statistics)
        origin = ws.seed(phi_eq)
    else:
        ws = _GummelWorkspace(stack, mesh, arr, phi_n, generation, statistics)
        origin = ws.seed(efn, phi_eq, n, p)
    spent = 0                   # iterations run since the last point was solved

    def rung(v, x, final):
        nonlocal spent
        try:
            x, cycles = ws.iterate(x, v, final)
            spent += cycles
            if not final:
                return x, None
            j_el = ws.finalize(x, v)
        except NonConvergenceError as exc:
            spent += exc.iterations
            return None, exc
        # device sign convention: positive gate voltage -> positive current
        j_total = -j_el
        j_mean = float(np.mean(j_total))
        # an undoped stack has no current scale, and a flat sweep point no current
        scale = max(abs(j_mean), DETAILED_BALANCE_FACTOR * _current_scale(arr),
                    sys.float_info.min)
        continuity = (float(np.max(np.abs(np.diff(j_total))) / scale)
                      if j_total.size > 1 else 0.0)
        return x, IVPoint(bias=v, current_density=j_mean, gummel_iterations=spent,
                          converged=True, continuity_error=continuity)

    for bias, result in _walk(biases, origin, rung):
        if isinstance(result, NonConvergenceError):
            result.iterations = spent
        yield bias, result
        spent = 0
