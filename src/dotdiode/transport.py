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
unknowns are the potential and both quasi-Fermi levels over kT and the
electron flux of each element; the Jacobian is one (4, 5)-banded system,
row-equilibrated and solved by LAPACK ``dgbsv``. The flux unknowns, tied
node to node by conservation, give the charge of a quantum-dot layer
between two barriers from the current through them even when the
barriers conduct 1e-40 of the dot. Each step evaluates F_1/2 once (no
inverse) and is damped after Bank & Rose (Numer. Math. 37, 279 (1981)):
an eta change d is taken as sign(d) ln(1 + |d|), and the step is halved
until its simplified Newton correction is no longer than itself
(Deuflhard's natural monotonicity test). A rung stops once the potential
update is below ``NEWTON_TOLERANCE`` thermal voltages and the quasi-Fermi
update, where the carrier density exceeds ``QF_DENSITY_FLOOR``, below
``QF_TOLERANCE``; it fails after ``NEWTON_MAX_ITERATIONS`` steps or when
no halving helps. The 0 V state is the Poisson solution at flat levels.
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
with the recombination loss implicit. Both rungs report a point from this
pass: the Gummel loop's last cycle, and the Newton rung's final pass at its
solution.

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
Newton rung in the dark and the Gummel rung under generation. The Gummel
state is one (8, N) array of the cycle map's rows (potential, quasi-Fermi
levels, degeneracy terms, ln n, ln p, recombination rate), seeded by the
0 V Poisson solution, which the secant predictor extrapolates directly. A
Gummel rung carries a state solved at another bias to its own (``restep``)
and iterates to the loose ``QF_TOLERANCE_CONTINUATION`` within
``MAX_GUMMEL_CONTINUATION`` cycles before a bias of the sweep, and to
``QF_TOLERANCE`` within ``MAX_GUMMEL`` at it. A point counts the
iterations run since the previous point, Newton steps or Gummel cycles,
in ``IVPoint.gummel_iterations``. ``solve_drift_diffusion`` is a one-bias
sweep.

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
from scipy.linalg.lapack import dgbsv, dgbtrs

from . import constants, dataio
from .device import DOPED_CONTACT_THRESHOLD
from .electrostatics import (
    CONTINUATION_STEP, NEWTON_MAX_ITERATIONS, NEWTON_TOLERANCE, NonConvergenceError,
    build_device_arrays,
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


def _bernoulli_slope(x, b, b_minus):
    """B'(x) = B(x) (1 - B(-x)) / x from b = B(x) and b_minus = B(-x), by its
    series -1/2 + x/6 - x^3/180 for |x| < 1e-4, where bernoulli switches too."""
    small = np.abs(x) < 1e-4
    xs = np.where(small, 1.0, x)
    xc = np.where(small, x, 0.0)
    return np.where(small, -0.5 + xc / 6.0 - xc ** 3 / 180.0, b * (1.0 - b_minus) / xs)


# The Newton rung's unknowns at node i sit at 4 i + (_P, _PHI, _N, _J) of the
# interleaved vector, and its equations in the same slots (hole continuity,
# Poisson, electron conservation, electron flux of element i). In this order
# every coupling lies within 4 places below and 5 above the diagonal.
_P, _PHI, _N, _J = range(4)
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

    The state handed to the walk is one (4, N) array: phi, E_Fn, E_Fp (V)
    and the element fluxes J (A/cm^2, the last entry unused).
    """

    def __init__(self, stack, mesh, arr, phi_neutral, statistics):
        self.stack, self.arr, self.phi_neutral = stack, arr, phi_neutral
        self.pair = _statistics(statistics)[2]
        self.fermi = statistics != "boltzmann"
        vt = arr.Vt
        self.n_states = np.stack([arr.Nc, arr.Nv])
        self.eta0 = np.stack([-arr.Ec0 / vt, arr.Ev0 / vt])
        self.w0 = np.log(self.n_states) + self.eta0
        self.c = np.stack([arr.mu_e_el, arr.mu_h_el]) * (constants.Q_E * vt / arr.h)
        self.nisq = arr.Nc * arr.Nv * np.exp(-(arr.Ec0 - arr.Ev0) / vt)
        zero = np.zeros(mesh.n_nodes)
        self.n_bc = tuple(carrier_densities(arr, phi_neutral, zero, zero, statistics)[0][[0, -1]])
        self.doped = np.broadcast_to((arr.Nd + arr.Na) >= DOPED_CONTACT_THRESHOLD,
                                     self.eta0.shape)
        self.lng_base = np.where(self.doped, _degeneracy(self.eta0 + _SIGN * phi_neutral / vt,
                                                         statistics)[0], 0.0)

        # Where the diagonal, upper and lower 4 x 4 blocks (equation e, unknown
        # u, node) go in the LAPACK band of 2 kl + ku + 1 rows: each (e, u)
        # inside the band fills every fourth place of one band row
        self.ld = 2 * _KL + _KU + 1
        self.layout = [(shift, e, u, _KL + _KU + e - u - 4 * shift, 4 * max(shift, 0) + u)
                       for shift in (0, 1, -1) for e in range(4) for u in range(4)
                       if -_KU <= e - u - 4 * shift <= _KL]
        self.bc = None

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

    @np.errstate(all="ignore")            # a state that overflows fails the checks
    def seed(self, phi):
        """The 0 V state: flat quasi-Fermi levels, no current, and the
        potential of these statistics, solved from the equilibrium potential
        `phi` of Fermi-Dirac statistics by Newton steps on the potential alone
        (halved until the Poisson residual does not grow, as in
        ``_solve_poisson``). Where the two differ, at the edges of the doped
        layers, the coupled iteration then starts at its own solution."""
        vt = self.arr.Vt
        z = np.zeros((4, phi.size))
        z[_PHI] = phi / vt
        self.bc = np.array([[0.0, 0.0], self.phi_neutral[[0, -1]], [0.0, 0.0]]) / vt
        r, terms = self._residual(z)
        for _ in range(NEWTON_MAX_ITERATIONS):
            di, up, lo = self._blocks(terms)
            try:
                step = _tridiag_solve(lo[_PHI, _PHI], di[_PHI, _PHI], up[_PHI, _PHI], -r[_PHI])
            except (ValueError, LinAlgError):       # the 0 V rung fails on this state
                break
            size = np.linalg.norm(r[_PHI])
            for _ in range(30):
                trial = z.copy()
                trial[_PHI] += step
                r_new, terms_new = self._residual(trial)
                if np.linalg.norm(r_new[_PHI]) <= size:
                    break
                step *= 0.5
            z, r, terms = trial, r_new, terms_new
            if np.max(np.abs(step)) < NEWTON_TOLERANCE:
                break
        return (z * vt)[[1, 2, 0, 3]]

    def _residual(self, z):
        """Residual (4, N) of the scaled unknowns z (4, N) and the terms its
        Jacobian reuses."""
        arr = self.arr
        eta = self.eta0 + _SIGN * (z[_PHI] + z[[_N, _P]])
        f, df, lng, dlng = self._fermi_dirac(eta)
        dens, ddens = self.n_states * f, self.n_states * df
        n, p = dens
        x = np.diff(self.w0 + _SIGN * z[_PHI] + lng, axis=1)
        b_minus = bernoulli(-x)
        em = np.expm1(np.diff(_SIGN * z[[_N, _P]], axis=1))
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
        return r, (dens, ddens, dlng, x, b_minus, em, gg, lng)

    def _blocks(self, terms):
        """Diagonal, upper and lower 4 x 4 blocks (equation, unknown, node) of
        the Jacobian at the terms ``_residual`` returned.

        The recombination source of the electron conservation rows is taken
        as it stands, without its derivative: in the dark it is some 20
        orders below the flux, and its derivative, in units of
        ``_FLUX_UNIT``, would outweigh the flux terms of those rows."""
        arr = self.arr
        dens, ddens, dlng, x, b_minus, em, gg, _ = terms
        n, p = dens
        # d/du of eta, ln gamma and w are nonzero for two unknowns per carrier:
        # phi and E_Fn for electrons, E_Fp and phi for holes (signs _SIGN)
        own = ([_PHI, _N], [_P, _PHI])
        # the flux of element i is c B(-x) m_i expm1(dsigma), m the density;
        # its slopes along w_i+1 - w_i, sigma_i+1 - sigma_i and m_i
        along_w = -self.c * _bernoulli_slope(-x, b_minus, b_minus - x) * dens[:, :-1] * em
        along_sigma = self.c * b_minus * dens[:, :-1] * (em + 1.0)
        along_m = self.c * b_minus * em
        to_right, to_own = np.zeros((2, 4, n.size - 1)), np.zeros((2, 4, n.size - 1))
        for k, sign in enumerate(_SIGN[:, 0]):
            for u in own[k]:
                d_w = sign * ((u == _PHI) + dlng[k])        # d w / du over kT
                to_right[k, u] = along_w[k] * d_w[1:]
                to_own[k, u] = sign * along_m[k] * ddens[k, :-1] - along_w[k] * d_w[:-1]
            sigma = [_N, _P][k]
            to_right[k, sigma] += sign * along_sigma[k]
            to_own[k, sigma] -= sign * along_sigma[k]
        d_rq_w = np.zeros((4, n.size))
        for k, sign in enumerate(_SIGN[:, 0]):
            for u in own[k]:
                d_rq_w[u] += sign * (dens[1 - k] * ddens[k] - gg * dlng[k])
        d_rq_w *= arr.q_w * B_RADIATIVE
        d_charge = np.zeros((4, n.size))                    # d (p - n) / du
        d_charge[_P] = -ddens[1]
        d_charge[_PHI] = -ddens[1] - ddens[0]
        d_charge[_N] = -ddens[0]

        di = np.zeros((4, 4, n.size))
        up, lo = np.zeros((4, 4, n.size - 1)), np.zeros((4, 4, n.size - 1))
        up[_P], lo[_P] = to_right[1], -to_own[1]
        di[_P, :, :-1] += to_own[1]
        di[_P, :, 1:] -= to_right[1]
        di[_P] -= d_rq_w
        cv = arr.cond * arr.Vt
        up[_PHI, _PHI] = lo[_PHI, _PHI] = cv
        di[_PHI, _PHI, 1:-1] = -(cv[1:] + cv[:-1])
        di[_PHI] += arr.q_w * d_charge
        di[_N, _J] = 1.0
        lo[_N, _J] = -1.0
        up[_J] = to_right[0] / _FLUX_UNIT
        di[_J, :, :-1] = to_own[0] / _FLUX_UNIT
        di[_J, _J] = -1.0
        for end in (0, -1):                      # Dirichlet rows, and the unused J
            di[:_J, :, end] = np.eye(4)[:_J]
        di[_J, _J, -1] = 1.0
        up[:_J, :, 0] = lo[:, :, -1] = 0.0
        return di, up, lo

    def _step(self, r, terms):
        """Newton step of the scaled unknowns for residual r, by one LAPACK
        ``dgbsv`` on the row-equilibrated band; the factors stay for
        ``_correction``. Raises NonConvergenceError if the Jacobian has a
        row that is zero or not finite, or the step is not finite."""
        di, up, lo = self._blocks(terms)
        rowmax = np.abs(di).max(axis=1)
        np.maximum(rowmax[:, :-1], np.abs(up).max(axis=1), out=rowmax[:, :-1])
        np.maximum(rowmax[:, 1:], np.abs(lo).max(axis=1), out=rowmax[:, 1:])
        scale = 1.0 / rowmax
        if not np.all(np.isfinite(scale)):
            raise NonConvergenceError("the Newton Jacobian has a zero or non-finite row")
        band = np.zeros((self.ld, r.size), order="F")
        blocks = {0: di * scale[:, None], 1: up * scale[:, None, :-1],
                  -1: lo * scale[:, None, 1:]}
        for shift, e, u, row, first in self.layout:
            block = blocks[shift]
            band[row, first::4][:block.shape[2]] = block[e, u]
        self.scale = scale.T.ravel()
        lu, piv, step, info = dgbsv(_KL, _KU, band, -(r.T.ravel() * self.scale)[:, None],
                                    overwrite_ab=1, overwrite_b=1)
        if info != 0 or not np.all(np.isfinite(step)):
            raise NonConvergenceError("the Newton step is singular or not finite")
        self.factors = lu, piv
        return step[:, 0].reshape(-1, 4).T

    def _correction(self, r):
        """The step the last factorisation gives for residual r: Deuflhard's
        simplified Newton correction."""
        lu, piv = self.factors
        step, _ = dgbtrs(lu, _KL, _KU, -(r.T.ravel() * self.scale)[:, None], piv,
                         overwrite_b=1)
        return step[:, 0].reshape(-1, 4).T

    @np.errstate(all="ignore")            # a state that overflows fails the checks
    def iterate(self, x, bias):
        """(state, Newton steps, last |dphi|/Vt) at `bias` from the state x.

        A step stops the rung once its potential update is below
        ``NEWTON_TOLERANCE`` thermal voltages and its quasi-Fermi update, where
        the carrier density exceeds ``QF_DENSITY_FLOOR``, is below
        ``QF_TOLERANCE``. A step that changes eta by d is taken as
        sign(d) ln(1 + |d|), which is d to second order and the density change
        its linearisation predicts, e^d - 1 ~ d, at large d. It is then halved
        until its simplified correction, in the same norm, is no longer than
        itself (Deuflhard's natural monotonicity test). That correction,
        once it meets both tolerances, is the rung's last step. Raises
        NonConvergenceError, carrying the steps run, when 30 halvings fail,
        the Jacobian breaks down, or ``NEWTON_MAX_ITERATIONS`` steps pass.
        """
        vt = self.arr.Vt
        unit = np.array([vt, vt, vt, _FLUX_UNIT])[:, None]
        z = x[[2, 0, 1, 3]] / unit
        # without generation the levels keep between their contact values
        # (maximum principle): a start and every iterate are held there, as
        # a level where its carrier is absent could otherwise run off
        window = min(0.0, -bias) / vt, max(0.0, -bias) / vt
        z[[_P, _N]] = np.clip(z[[_P, _N]], *window)
        self.bc = np.array([[0.0, -bias], [self.phi_neutral[0], self.phi_neutral[-1] + bias],
                            [0.0, -bias]]) / vt
        r, terms = self._residual(z)
        steps = 0
        while steps < NEWTON_MAX_ITERATIONS:
            steps += 1
            try:
                dz = self._step(r, terms)
            except NonConvergenceError as exc:
                raise self._broke_down(bias, exc, steps) from None
            counted = self._counted(terms)
            update, done = self._small(dz, counted)
            size = np.linalg.norm(dz * counted)
            deta = _SIGN * (dz[[_N, _P], 1:-1] + dz[_PHI, 1:-1])
            dz[[_N, _P], 1:-1] += _SIGN * (np.sign(deta) * np.log1p(np.abs(deta)) - deta)
            t = 1.0
            for _ in range(30):
                trial = z + t * dz
                trial[[_P, _N]] = np.clip(trial[[_P, _N]], *window)
                if done:
                    return (trial * unit)[[1, 2, 0, 3]], steps, update
                r_new, terms_new = self._residual(trial)
                correction = self._correction(r_new)
                if np.linalg.norm(correction * counted) <= size:
                    break
                t *= 0.5
            else:
                raise self._broke_down(bias, "no damped step reduced the Newton correction",
                                       steps)
            z, r, terms = trial, r_new, terms_new
            # the simplified correction is the next step but for the
            # Jacobian; once it is below tolerance it ends the rung as that
            # step would (Deuflhard's termination), without a factorisation
            update, done = self._small(correction, self._counted(terms))
            if done and steps < NEWTON_MAX_ITERATIONS:
                z += correction
                z[[_P, _N]] = np.clip(z[[_P, _N]], *window)
                return (z * unit)[[1, 2, 0, 3]], steps + 1, update
        raise NonConvergenceError(f"Newton iteration did not converge in {steps} steps at "
                                  f"V = {bias} V, T = {self.stack.temperature} K",
                                  gummel_cycles=steps)

    @staticmethod
    def _counted(terms):
        """1 where an update counts towards convergence: the potential, and a
        quasi-Fermi level where its carrier density exceeds
        ``QF_DENSITY_FLOOR``; 0 elsewhere and for the fluxes."""
        counted = np.ones((4, terms[0].shape[1]))
        counted[[_P, _N]] = terms[0][::-1] > QF_DENSITY_FLOOR
        counted[_J] = 0.0
        return counted

    def _small(self, dz, counted):
        """(largest |dphi|/Vt, whether the step dz meets both tolerances)."""
        update = float(np.max(np.abs(dz[_PHI])))
        qf_update = self.arr.Vt * float(np.max(np.abs(dz[[_P, _N]]),
                                               where=counted[[_P, _N]] > 0, initial=0.0))
        return update, update < NEWTON_TOLERANCE and qf_update < QF_TOLERANCE

    def _broke_down(self, bias, exc, steps):
        return NonConvergenceError(f"transport solve broke down at V = {bias} V, "
                                   f"T = {self.stack.temperature} K: {exc}", gummel_cycles=steps)

    @np.errstate(all="ignore")            # a state that overflows fails the checks
    def finalize(self, x, bias):
        """(n, p, efn, efp, electron plus hole element flux) at the state x,
        from the final continuity pass of the Gummel loop: the exact electron
        integral at the state's driving potential and recombination, and the
        linear hole SG solve at its potential and electrons. Raises
        NonConvergenceError if the current is not finite (at a few kelvin,
        exp(w/kT) leaves the float range)."""
        arr, vt = self.arr, self.arr.Vt
        unit = np.array([vt, vt, vt, _FLUX_UNIT])[:, None]
        (n, p), _, _, x_w, _, _, gg, lng = self._residual(x[[2, 0, 1, 3]] / unit)[1]
        w = vt * (self.w0[0] + lng[0]) + x[0]
        y = x_w[1]
        bp, bm = bernoulli(y), bernoulli(-y)
        lower, upper = -self.c[1] * bm, -self.c[1] * bp
        lower[-1] = upper[0] = 0.0
        loss = B_RADIATIVE * n
        diag = np.ones_like(n)
        diag[1:-1] = (self.c[1, 1:] * bm[1:] + self.c[1, :-1] * bp[:-1]
                      + arr.q_w[1:-1] * loss[1:-1])
        rhs = arr.q_w * B_RADIATIVE * gg
        rhs[[0, -1]] = p[[0, -1]]
        try:
            p = np.maximum(_tridiag_solve(lower, diag, upper, rhs), 0.0)
            _, j_el = _electron_integral_solve(arr, w, arr.q_w * (loss * p - B_RADIATIVE * gg),
                                               self.n_bc)
            j = j_el + self.c[1] * (bm * p[:-1] - bp * p[1:])
            if not np.all(np.isfinite(j)):
                raise ValueError("the current is not finite")
        except (ValueError, LinAlgError) as exc:
            raise self._broke_down(bias, exc, 0) from None
        return n, p, x[1], x[2], j


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
    if generation == 0.0:
        ws = _NewtonWorkspace(stack, mesh, arr, phi_n, statistics)
        origin = ws.seed(phi_eq)

        def advance(v, start, final):
            return ws.iterate(start[1], v)
    else:
        ws = _GummelWorkspace(stack, mesh, arr, phi_n, generation, statistics)
        origin = ws.seed(efn, phi_eq, n, p)

        def advance(v, start, final):
            limits = ((MAX_GUMMEL, QF_TOLERANCE) if final
                      else (MAX_GUMMEL_CONTINUATION, QF_TOLERANCE_CONTINUATION))
            return ws.iterate(ws.restep(*start, v), v, *limits)
    spent = 0                   # iterations run since the last point was solved

    def rung(v, start, final):
        nonlocal spent
        try:
            x, cycles, update = advance(v, start, final)
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
        # an undoped stack has no current scale, and a flat sweep point no current
        scale = max(abs(j_mean), 1e-15 * _current_scale(arr), sys.float_info.min)
        continuity = (float(np.max(np.abs(np.diff(j_total))) / scale)
                      if j_total.size > 1 else 0.0)
        return x, (_make_diagram(stack, mesh, arr, x[0], n, p, efn, efp, v, True, update),
                   IVPoint(bias=v, current_density=j_mean, gummel_iterations=spent,
                           converged=True, continuity_error=continuity))

    for bias, result in _walk(biases, origin, rung, CONTINUATION_STEP):
        if isinstance(result, NonConvergenceError):
            result.gummel_cycles = spent
        yield bias, result
        spent = 0
