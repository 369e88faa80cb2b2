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

Each bias point is reached by continuation in steps of at most
``BIAS_STEP``. ``solve_drift_diffusion`` returns the Gummel state it
ended in (a dict of the potential, densities, quasi-Fermi levels, lagged
degeneracy and recombination terms at its bias) next to the band diagram
and the IV point; passing that state back as ``init`` starts the next
bias from it instead of from the 0 V Poisson solution, which is how
``iv_sweep`` warm-starts each point from the previous one.

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

from . import constants, dataio
from .device import DOPED_CONTACT_THRESHOLD
from .electrostatics import (
    NonConvergenceError, build_device_arrays, neutral_potential,
    carrier_densities, fermi_half, _fermi_half_pair, _solve_poisson,
    _tridiag_solve, _make_diagram, _statistics, solve_bias, quasi_fermi_split,
)

MESA_AREA_CM2 = 0.14e-2  # 0.14 mm^2 reference mesa

QF_TOLERANCE = 1e-8                 # V, max quasi-Fermi update per cycle
MAX_GUMMEL = 500
QF_TOLERANCE_CONTINUATION = 1e-5    # V, at intermediate biases
MAX_GUMMEL_CONTINUATION = 150
QF_DENSITY_FLOOR = 1e6              # cm^-3, QFL updates below this density
                                    # do not count towards convergence
BIAS_STEP = 0.125                   # V, internal continuation increment
B_RADIATIVE = 1e-10                 # cm^3/s
ANDERSON_DEPTH = 5                  # previous Gummel cycles mixed into each new one


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
            "device_area_cm2": dataio.format_float(self.device_area_cm2),
            "temperature_K": dataio.format_float(self.temperature),
            "all_converged": all(pt.converged for pt in self.points),
        }
        base.update(meta or {})
        dataio.write_table(
            path, [self.biases(), j, i, np.abs(i),
                   [pt.gummel_iterations for pt in self.points],
                   [pt.converged for pt in self.points]],
            ["bias_V", "J_Acm2", "I_A", "abs_I_A", "gummel_iterations", "converged"],
            meta=base)


def _ln_gamma(eta, statistics):
    """ln of the degeneracy factor F(eta)/exp(eta) (zero for Boltzmann)."""
    if statistics == "boltzmann":
        return np.zeros_like(np.asarray(eta, dtype=float))
    eta = np.asarray(eta, dtype=float)
    safe = np.maximum(eta, -30.0)
    return np.where(eta < -30.0, 0.0, np.log(fermi_half(safe)) - safe)


def _degeneracy(eta, statistics):
    """(ln gamma, damping) at eta for the Gummel loop, from one F/F' pair.

    ln gamma is _ln_gamma's value; the per-node damping F'(eta)/F(eta),
    clipped to [0.02, 1] (1 below eta = -30), keeps the lagged degeneracy
    fixed point contractive.
    """
    eta = np.asarray(eta, dtype=float)
    if statistics == "boltzmann":
        return np.zeros_like(eta), np.ones_like(eta)
    safe = np.maximum(eta, -30.0)
    f, df = _fermi_half_pair(safe)
    ln_gamma = np.where(eta < -30.0, 0.0, np.log(f) - safe)
    return ln_gamma, np.clip(df / f, 0.02, 1.0)


def _driving_potentials(arr, phi, ln_gamma_n, ln_gamma_p):
    w = phi - arr.Ec0 + arr.Vt * (np.log(arr.Nc) + ln_gamma_n)
    v = -phi + arr.Ev0 + arr.Vt * (np.log(arr.Nv) + ln_gamma_p)
    return w, v


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
    follows by summation. Returns (n, J_el).
    """
    x = np.diff(w) / arr.Vt
    c = constants.Q_E * arr.mu_e_el * arr.Vt / arr.h
    wref = float(np.max(w))
    expw = (w - wref) / arr.Vt
    cond = c * bernoulli(-x) * np.exp(expw[:-1])      # J = cond * (s_{i+1} - s_i)

    q_cum = np.concatenate([[0.0], np.cumsum(source[1:-1])])
    inv = 1.0 / cond
    s0 = n_bc[0] * np.exp(min(-expw[0], 700.0))
    s_end = n_bc[1] * np.exp(min(-expw[-1], 700.0))
    j0 = (s_end - s0 - np.sum(q_cum * inv)) / np.sum(inv)
    j_el = j0 + q_cum
    s = _two_sided_profile(s0, s_end, j_el * inv)
    s = np.maximum(s, 1e-300)
    n = np.exp(np.log(s) + expw)
    return n, j_el


def _hole_tridiagonal_solve(arr, v, loss_coef, gen_term, p_bc):
    """Scharfetter-Gummel hole continuity solve (M-matrix, implicit loss).

    Solves d/dx Jp = q (G_eff - loss_coef * p) with Jp in SG form driven
    by the hole potential `v`; `loss_coef` [1/s] enters the diagonal (so
    recombination is unconditionally stable) and `gen_term` [A/cm^2 per
    node] the right-hand side. Holes carry negligible current in n-i-n
    devices but must stay bounded under strong generation, which this
    local solve guarantees.
    """
    y = np.diff(v) / arr.Vt
    bp = bernoulli(y)
    bm = bernoulli(-y)
    c = constants.Q_E * arr.mu_h_el * arr.Vt / arr.h

    # Dirichlet rows at both ends hold the contact densities
    lower = -c * bm
    lower[-1] = 0.0
    upper = -c * bp
    upper[0] = 0.0
    diag = np.ones(v.size)
    diag[1:-1] = (c[1:] * bm[1:] + c[:-1] * bp[:-1]
                  + constants.Q_E * arr.w[1:-1] * loss_coef[1:-1])
    rhs = np.empty(v.size)
    rhs[1:-1] = gen_term[1:-1]
    rhs[0], rhs[-1] = p_bc
    return _tridiag_solve(lower, diag, upper, rhs)


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
    """Mesh-resolved arrays and iteration state shared across bias steps."""

    def __init__(self, stack, mesh, generation, statistics):
        self.stack = stack
        self.mesh = mesh
        self.stats = statistics
        self.arr = build_device_arrays(stack, mesh)
        self.inverse = _statistics(statistics)[3]
        arr, stats = self.arr, self.stats

        self.phi_neutral = neutral_potential(arr, stats)
        zero = np.zeros(mesh.n_nodes)
        n_neutral, p_neutral = carrier_densities(arr, self.phi_neutral, zero, zero, stats)
        self.n_bc = (n_neutral[0], n_neutral[-1])
        self.p_bc = (p_neutral[0], p_neutral[-1])
        self.gen = _generation_profile(stack, mesh, generation)
        self.nisq = arr.Nc * arr.Nv * np.exp(-(arr.Ec0 - arr.Ev0) / arr.Vt)

        # In strongly doped regions the density is pinned to the doping, so
        # the degeneracy factor's fixed point is its charge-neutral value;
        # freezing it there removes a slowly damped flutter mode at the
        # degenerate contacts. Elsewhere it relaxes with per-node damping.
        self.free_nodes = (arr.Nd + arr.Na) < DOPED_CONTACT_THRESHOLD
        self.lng_n_neutral = _ln_gamma(
            self.inverse(np.maximum(n_neutral, 1e-30) / arr.Nc), stats)
        self.lng_p_neutral = _ln_gamma(
            self.inverse(np.maximum(p_neutral, 1e-30) / arr.Nv), stats)

    def seed(self, bias, phi_start):
        """Fresh iteration state at `bias` from a potential profile."""
        arr, stats = self.arr, self.stats
        phi = phi_start.copy()
        phi[0] = self.phi_neutral[0]
        phi[-1] = self.phi_neutral[-1] + bias
        efn = quasi_fermi_split(self.stack, self.mesh, bias).astype(float)
        n, p = carrier_densities(arr, phi, efn, efn, stats)
        n = np.maximum(n, 1e-30)
        p = np.maximum(p, 1e-30)
        lng_n = np.where(self.free_nodes,
                         _ln_gamma(self.inverse(n / arr.Nc), stats),
                         self.lng_n_neutral)
        lng_p = np.where(self.free_nodes,
                         _ln_gamma(self.inverse(p / arr.Nv), stats),
                         self.lng_p_neutral)
        return {"bias": bias, "phi": phi, "n": n, "p": p, "efn": efn,
                "efp": efn.copy(), "lng_n": lng_n, "lng_p": lng_p,
                "recomb": np.zeros(self.mesh.n_nodes)}

    def restep(self, state, bias):
        """Carry a converged state to a nearby bias (continuation)."""
        old = state["bias"]
        out = {k: (v.copy() if isinstance(v, np.ndarray) else v)
               for k, v in state.items()}
        out["bias"] = bias
        out["phi"][0] = self.phi_neutral[0]
        out["phi"][-1] = self.phi_neutral[-1] + bias
        if old != 0.0:
            scale = bias / old
            out["efn"] = np.clip(state["efn"] * scale, min(0.0, -bias), max(0.0, -bias))
            out["efp"] = np.clip(state["efp"] * scale, min(0.0, -bias), max(0.0, -bias))
        else:
            split = quasi_fermi_split(self.stack, self.mesh, bias).astype(float)
            out["efn"] = split
            out["efp"] = split.copy()
        return out

    def _hole_solve(self, v, n, p, efn, efp):
        """Hole continuity at fixed electrons: B n p implicit, the
        mass-action back-generation explicit and capped at the thermal rate."""
        arr = self.arr
        loss = B_RADIATIVE * n
        g_rad = np.minimum(
            loss * p * np.exp(np.clip((efp - efn) / arr.Vt, -500.0, 40.0)),
            B_RADIATIVE * self.nisq)
        gen_term = constants.Q_E * arr.w * (self.gen + g_rad)
        return np.maximum(_hole_tridiagonal_solve(arr, v, loss, gen_term, self.p_bc), 1e-30)

    def iterate(self, state, max_cycles, tolerance):
        """Run Anderson-mixed Gummel cycles at the state's bias.

        Mutates and returns state, which always ends as the unmixed output
        of the last cycle run.
        """
        arr, stats = self.arr, self.stats
        bias = state["bias"]
        phi_bc = (self.phi_neutral[0], self.phi_neutral[-1] + bias)

        # maximum principle: quasi-Fermi levels stay between contact values
        ef_lo = min(0.0, -bias) - 0.1
        ef_hi = max(0.0, -bias) + 0.1

        # Cycle inputs x and outputs g, one row each: phi, efn, efp, lng_n,
        # lng_p, ln n, ln p, recomb. The first five rows, with phi, efn and
        # efp over Vt, form the fixed-point residual g - x. Type-II Anderson
        # mixing combines the last ANDERSON_DEPTH differences of residuals
        # and of outputs into the next input; it also damps the flip-flop of
        # the explicit recombination term at generation-recombination
        # balance, so recomb needs no relaxation of its own.
        x = np.stack([state["phi"], state["efn"], state["efp"], state["lng_n"],
                      state["lng_p"], np.log(state["n"]), np.log(state["p"]),
                      state["recomb"]])
        g = np.empty_like(x)
        g_prev = np.empty_like(x)
        scale = np.array([1.0 / arr.Vt] * 3 + [1.0] * 2)[:, None]
        d_f = np.empty((ANDERSON_DEPTH, 5 * x.shape[1]))
        d_g = np.empty((ANDERSON_DEPTH, x.size))
        f_prev = None
        depth = slot = 0

        converged = False
        qf_update = np.inf
        cycles = 0
        for cycles in range(1, max_cycles + 1):
            phi, efn, efp, lng_n, lng_p = x[:5]
            w, v = _driving_potentials(arr, phi, lng_n, lng_p)
            src = constants.Q_E * arr.w * (x[7] - self.gen)
            n, _ = _electron_integral_solve(arr, w, src, self.n_bc)
            n = np.maximum(n, 1e-30)
            p = self._hole_solve(v, n, np.exp(x[6]), efn, efp)

            eta_raw_n = self.inverse(n / arr.Nc)
            eta_raw_p = self.inverse(p / arr.Nv)
            efn_t = np.clip((arr.Ec0 - phi) + arr.Vt * eta_raw_n, ef_lo, ef_hi)
            efp_t = np.clip((arr.Ev0 - phi) - arr.Vt * eta_raw_p, ef_lo, ef_hi)
            eta_n = (efn_t - arr.Ec0 + phi) / arr.Vt
            eta_p = (arr.Ev0 - phi - efp_t) / arr.Vt
            lng_n_t, alpha_n = _degeneracy(eta_n, stats)
            lng_p_t, alpha_p = _degeneracy(eta_p, stats)
            g[3] = np.clip(lng_n + alpha_n * self.free_nodes * (lng_n_t - lng_n),
                           -60.0, 0.0)
            g[4] = np.clip(lng_p + alpha_p * self.free_nodes * (lng_p_t - lng_p),
                           -60.0, 0.0)

            # Boltzmann-equivalent levels reproduce the continuity densities.
            # Electron degeneracy shifts them below the physical levels by
            # kT ln(gamma) (holes: above), so the guard windows extend
            # 0.3 eV in those directions only.
            efn_b = np.clip((arr.Ec0 - phi) + arr.Vt * np.log(n / arr.Nc),
                            ef_lo - 0.3, ef_hi + 0.05)
            efp_b = np.clip((arr.Ev0 - phi) - arr.Vt * np.log(p / arr.Nv),
                            ef_lo - 0.05, ef_hi + 0.3)
            # The Gummel loop iterates in Boltzmann-equivalent quasi-Fermi
            # levels (the Poisson stage runs Boltzmann statistics); in those
            # variables the continuity <-> Poisson transfer has zero gain in
            # quasi-neutral regions regardless of degeneracy. The physical
            # Fermi-Dirac behaviour enters through the lagged degeneracy terms
            # lng_n/lng_p of the driving potentials.
            phi_new, n, p, _, ok, _ = _solve_poisson(arr, efn_b, efp_b, phi_bc, phi,
                                                     "boltzmann")
            if not ok:
                raise NonConvergenceError(
                    f"Poisson stage failed inside Gummel cycle {cycles} at V = {bias} V",
                    gummel_cycles=cycles)
            n = np.maximum(n, 1e-30)
            p = np.maximum(p, 1e-30)
            g[0], g[1], g[2] = phi_new, efn_t, efp_t
            g[5], g[6] = np.log(n), np.log(p)
            g[7] = B_RADIATIVE * n * p * (
                1.0 - np.exp(np.clip((efp_t - efn_t) / arr.Vt, -500.0, 500.0)))

            # a quasi-Fermi level only matters where its carrier is present
            mask_n = n > QF_DENSITY_FLOOR
            mask_p = p > QF_DENSITY_FLOOR
            du_n = np.max(np.abs(efn_t - efn)[mask_n]) if np.any(mask_n) else 0.0
            du_p = np.max(np.abs(efp_t - efp)[mask_p]) if np.any(mask_p) else 0.0
            qf_update = max(du_n, du_p)
            if qf_update < tolerance:
                converged = True
                break

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

        state.update(phi=g[0], n=n, p=p, efn=g[1], efp=g[2],
                     lng_n=g[3], lng_p=g[4], recomb=g[7])
        return state, converged, cycles, float(qf_update)

    def finalize(self, state):
        """Final continuity pass; fluxes and densities for reporting."""
        arr = self.arr
        phi = state["phi"]
        src = constants.Q_E * arr.w * (state["recomb"] - self.gen)
        w, v = _driving_potentials(arr, phi, state["lng_n"], state["lng_p"])
        n, jn_el = _electron_integral_solve(arr, w, src, self.n_bc)
        n = np.maximum(n, 1e-30)
        p = self._hole_solve(v, n, state["p"], state["efn"], state["efp"])
        jp_el = hole_flux(arr, v, p)
        efn = (arr.Ec0 - phi) + arr.Vt * self.inverse(n / arr.Nc)
        efp = (arr.Ev0 - phi) - arr.Vt * self.inverse(p / arr.Nv)
        return n, p, efn, efp, jn_el + jp_el


def _bias_ladder(start, target, step):
    """Intermediate biases from `start` (exclusive) to `target` (inclusive)."""
    span = target - start
    if span == 0.0:
        return [target]
    n_steps = max(1, int(math.ceil(abs(span) / step - 1e-12)))
    return [start + span * k / n_steps for k in range(1, n_steps + 1)]


def solve_drift_diffusion(stack, mesh, bias, generation=0.0, statistics="fermi",
                          init=None):
    """Self-consistent drift-diffusion solve at one bias point.

    `generation` [cm^-3 s^-1] is uniform in the undoped layers; `statistics`
    is "fermi" or "boltzmann". Returns (BandDiagram, IVPoint, state). The
    solver continues in bias steps of at most BIAS_STEP carrying the full
    Gummel state; `init` may be the state of a previous solve on the same
    stack, mesh and generation to warm-start from its bias, otherwise
    continuation starts from the gated Poisson solution at 0 V. A
    NonConvergenceError carries the Gummel cycles run before it.
    """
    ws = _GummelWorkspace(stack, mesh, generation, statistics)

    if init is not None:
        state = init
    else:
        eq = solve_bias(stack, mesh, 0.0, statistics)
        state = ws.seed(0.0, eq.phi)

    ladder = _bias_ladder(state["bias"], bias, BIAS_STEP)
    converged = False
    qf_update = np.inf
    total_cycles = 0
    for k, v_step in enumerate(ladder):
        last = (k == len(ladder) - 1)
        state = ws.restep(state, v_step) if state["bias"] != v_step else state
        max_cycles = MAX_GUMMEL if last else MAX_GUMMEL_CONTINUATION
        tol = QF_TOLERANCE if last else QF_TOLERANCE_CONTINUATION
        try:
            state, converged, cycles, qf_update = ws.iterate(state, max_cycles, tol)
        except NonConvergenceError as exc:
            exc.gummel_cycles += total_cycles
            raise
        total_cycles += cycles

    n, p, efn, efp, j_el = ws.finalize(state)

    # device sign convention: positive gate voltage -> positive current
    j_total = -j_el
    j_mean = float(np.mean(j_total))
    scale = max(abs(j_mean), 1e-15 * _current_scale(ws.arr))
    continuity = float(np.max(np.abs(np.diff(j_total))) / scale) if j_total.size > 1 else 0.0

    diagram = _make_diagram(stack, mesh, ws.arr, state["phi"], n, p, efn, efp,
                            bias, converged, qf_update)
    point = IVPoint(bias=bias, current_density=j_mean,
                    gummel_iterations=total_cycles, converged=converged,
                    continuity_error=continuity)
    return diagram, point, state


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
    """IV curve over `biases` in the given order with warm-start continuation.

    Per-point convergence failures are recorded on the corresponding
    IVPoint (current NaN, the Gummel cycles actually run) without aborting
    the sweep.
    """
    points = []
    warm = None
    for bias in biases:
        try:
            _, point, warm = solve_drift_diffusion(stack, mesh, bias, generation,
                                                   statistics, init=warm)
        except NonConvergenceError as exc:
            point = IVPoint(bias=bias, current_density=math.nan,
                            gummel_iterations=exc.gummel_cycles, converged=False,
                            continuity_error=math.nan)
            warm = None
        points.append(point)
    return IVCurve(points=tuple(points), temperature=stack.temperature)
