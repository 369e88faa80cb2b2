"""Single quantum-dot phenomenology: Stark-shifted lines, charge states,
field-dependent fine structure and synthetic gate-voltage emission maps.

Emission energies follow the quadratic confined-Stark form
E(F) = E0 + p F + beta F^2 with the field F [kV/cm] obtained from the
gate voltage through the lever arm F = V / d_i. The bundled reference
lines are calibrated so that each species reproduces its measured tuning
range over the 0.59-1.96 V sweep window with the parabola vertex pinned
at the window's low edge (monotone red shift across the window); the
calibration finds the polarizability by a ``brentq`` root solve of the
window's closed-form wavelength span.

Charge occupancy versus gate voltage is empirical: an ordered ladder of
region edges with an electron count and a set of active species per
region. Edges are right-continuous (an edge voltage belongs to the
higher-voltage region) and the final edge closes the last region.

Fine-structure splitting is clamped-linear in gate voltage,
FSS(V) = max(floor, delta_ref + slope (V - V_ref)); charged species carry
no fine structure by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import constants, dataio
from .electrostatics import field_lever_arm
from .spectro_fit import lorentzian_profile

SPECIES = ("X0", "Xminus", "XX", "X2minus")
CHARGED_SPECIES = ("Xminus", "X2minus")

# dipole is stored in e*nm: 1 e*nm * 1 kV/cm = 1e-4 eV
_DIPOLE_EV_PER_KVCM = 1.0e-4
_UEV = 1.0e-6


class LadderRangeError(ValueError):
    """Gate voltage outside the charge ladder's span."""


@dataclass(frozen=True)
class FssModel:
    """Clamped-linear fine-structure splitting vs gate voltage."""

    delta_ref_ueV: float
    slope_ueV_per_V: float
    V_ref: float
    floor_ueV: float = 0.0

    def __post_init__(self):
        if self.floor_ueV < 0:
            raise ValueError("FSS floor must be non-negative")


@dataclass(frozen=True)
class ExcitonLine:
    """One QD emission line with its Stark and fine-structure parameters."""

    species: str
    E0_eV: float                  # emission energy at F = 0
    dipole_enm: float             # p, in e*nm
    polarizability_ueV: float     # beta, in ueV/(kV/cm)^2
    fss: FssModel | None = None
    relative_brightness: float = 1.0

    def __post_init__(self):
        if self.species not in SPECIES:
            raise ValueError(f"unknown species {self.species!r}")
        if self.species in CHARGED_SPECIES and self.fss is not None:
            raise ValueError(f"{self.species} is charged and must not carry an FSS model")
        if self.relative_brightness <= 0:
            raise ValueError("relative_brightness must be positive")


def stark_energy(line, F_kVcm):
    """Emission energy [eV] at field F [kV/cm]: E0 + p F + beta F^2."""
    F = np.asarray(F_kVcm, dtype=float)
    out = (line.E0_eV + line.dipole_enm * _DIPOLE_EV_PER_KVCM * F
           + line.polarizability_ueV * _UEV * F * F)
    return out if out.ndim else float(out)


def stark_wavelength(line, F_kVcm):
    """Emission wavelength [nm] at field F [kV/cm]."""
    return constants.HC_EV_NM / stark_energy(line, F_kVcm)


def tuning_range(line, V_min, V_max, d_i_nm):
    """Wavelength span [nm] over the closed gate-voltage interval.

    The quadratic E(F) may have its vertex inside the window, so the
    extrema are evaluated at both ends and at the interior vertex. Raises
    ValueError unless each of those wavelengths is finite and positive:
    then the energy is positive, and every wavelength finite, across the
    whole window.
    """
    if not V_min < V_max:
        raise ValueError("V_min must be below V_max")
    fields = [field_lever_arm(V_min, d_i_nm), field_lever_arm(V_max, d_i_nm)]
    beta = line.polarizability_ueV * _UEV
    if beta != 0.0:
        f_vertex = -line.dipole_enm * _DIPOLE_EV_PER_KVCM / (2.0 * beta)
        if min(fields) < f_vertex < max(fields):
            fields.append(f_vertex)
    with np.errstate(over="ignore", invalid="ignore"):
        lams = [stark_wavelength(line, f) for f in fields]
    for lam in lams:
        if not 0.0 < lam < np.inf:
            raise ValueError(f"{line.species} wavelength over {V_min} to {V_max} V at d_i = "
                             f"{d_i_nm} nm must be finite and positive, not {lam} nm")
    return max(lams) - min(lams)


def calibrate_stark_line(species, anchor_wavelength_nm, anchor_V, range_nm,
                         V_lo, V_hi, d_i_nm, fss=None, relative_brightness=1.0):
    """Construct an ExcitonLine matching a wavelength anchor and tuning range.

    The parabola vertex sits at the low edge of (V_lo, V_hi), so the line
    red-shifts monotonically across the whole window; the polarizability
    follows from a 1D root solve of the window's wavelength span and the
    dipole from the vertex condition p = -2 beta F_lo.
    """
    from scipy.optimize import brentq   # imported here to keep it out of the CLI's start-up

    f_lo = field_lever_arm(V_lo, d_i_nm)
    f_hi = field_lever_arm(V_hi, d_i_nm)
    f_anchor = field_lever_arm(anchor_V, d_i_nm)
    e_anchor = constants.HC_EV_NM / anchor_wavelength_nm

    def span(beta_ueV):
        beta = beta_ueV * _UEV
        # energy parametrized around the vertex at f_lo
        e_vertex = e_anchor - beta * (f_anchor - f_lo) ** 2
        lam_lo = constants.HC_EV_NM / e_vertex
        lam_hi = constants.HC_EV_NM / (e_vertex + beta * (f_hi - f_lo) ** 2)
        return lam_hi - lam_lo

    beta_ueV = brentq(lambda b: span(b) - range_nm, -50.0, -1e-9, xtol=1e-14)
    beta = beta_ueV * _UEV
    dipole_enm = -2.0 * beta * f_lo / _DIPOLE_EV_PER_KVCM
    e_vertex = e_anchor - beta * (f_anchor - f_lo) ** 2
    e0 = e_vertex + beta * f_lo ** 2   # E(0) = vertex value + beta (0 - f_lo)^2
    return ExcitonLine(species=species, E0_eV=e0, dipole_enm=dipole_enm,
                       polarizability_ueV=beta_ueV, fss=fss,
                       relative_brightness=relative_brightness)


def fss_at(model, V):
    """Fine-structure splitting [ueV] at gate voltage V (clamped linear)."""
    value = model.delta_ref_ueV + model.slope_ueV_per_V * (V - model.V_ref)
    return max(model.floor_ueV, value)


@dataclass(frozen=True)
class ChargeLadder:
    """Gate-voltage regions of fixed electron occupancy."""

    region_edges: tuple            # ordered voltages, len = n_regions + 1
    occupancy: tuple               # electron count per region
    active_species: tuple          # tuple of species-name tuples per region

    def __post_init__(self):
        edges = self.region_edges
        if len(edges) < 2 or any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("region edges must be strictly increasing")
        if not (len(self.occupancy) == len(self.active_species) == len(edges) - 1):
            raise ValueError("need one occupancy and species set per region")
        if any(b > a for a, b in zip(self.occupancy, self.occupancy[1:])):
            raise ValueError("occupancy must be non-increasing with voltage")

    @property
    def span(self):
        return self.region_edges[0], self.region_edges[-1]


def occupancy_at(ladder, V):
    """(electron count, active species) at gate voltage V.

    Regions are right-continuous: an edge voltage belongs to the region
    starting there; the final edge belongs to the last region. Voltages
    outside the ladder raise LadderRangeError rather than clamping.
    """
    lo, hi = ladder.span
    if not lo <= V <= hi:
        raise LadderRangeError(f"gate voltage {V} V outside ladder span [{lo}, {hi}] V")
    idx = int(np.searchsorted(ladder.region_edges, V, side="right")) - 1
    idx = min(idx, len(ladder.occupancy) - 1)
    return ladder.occupancy[idx], tuple(ladder.active_species[idx])


@dataclass(frozen=True)
class BackgroundModel:
    """Monotone non-increasing background level vs gate voltage (counts)."""

    amplitude: float = 40.0
    v_mid: float = 0.3
    width: float = 0.2
    floor: float = 2.0

    def __call__(self, V):
        V = np.asarray(V, dtype=float)
        out = self.floor + self.amplitude / (1.0 + np.exp((V - self.v_mid) / self.width))
        return out if out.ndim else float(out)


ZERO_BACKGROUND = BackgroundModel(amplitude=0.0, floor=0.0)


@dataclass(frozen=True)
class EmissionMap:
    """Synthetic gate-voltage / wavelength intensity map."""

    gate_V: np.ndarray
    wavelength_nm: np.ndarray
    intensity: np.ndarray          # (n_wavelength, n_gate): int64 counts when seeded,
                                   # float expected counts otherwise

    def to_csv(self, path, meta=None):
        """One row per wavelength; the header row carries the gate voltages."""
        names = ["wavelength_nm\\gate_V"] + [dataio.format_float(v) for v in self.gate_V]
        dataio.write_table(path, [self.wavelength_nm, *self.intensity.T], names, meta=meta)


def _render_column(lines, ladder, V, wl_grid, linewidth_ueV, background, d_i_nm):
    _, active = occupancy_at(ladder, V)
    F = field_lever_arm(V, d_i_nm)
    column = np.full(wl_grid.shape, float(background(V)))
    for line in lines:
        if line.species not in active:
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            lam_c = stark_wavelength(line, F)
        fwhm_nm = lam_c * lam_c * linewidth_ueV * _UEV / constants.HC_EV_NM
        hw = 0.5 * fwhm_nm                  # the Lorentzian squares the half width
        if not (0.0 < lam_c < np.inf and 0.0 < hw * hw < np.inf):
            raise ValueError(f"{line.species} line at gate voltage {V} V: centre {lam_c} nm "
                             f"and FWHM {fwhm_nm} nm must be finite and positive, the "
                             "FWHM squared too")
        column += lorentzian_profile(wl_grid, lam_c, fwhm_nm, line.relative_brightness)
    return column


def synth_emission_map(lines, ladder, gate_V, wavelength_nm, linewidth_ueV=30.0,
                       background=None, seed=None, d_i_nm=240.0):
    """Render active emission lines as Lorentzians over a (V, lambda) grid.

    Counts are Poisson-sampled as int64 when `seed` is given, with one child
    generator per gate-voltage column (seed XOR column index) so the map
    is reproducible independently of evaluation order.
    """
    gate_V = np.asarray(gate_V, dtype=float)
    wavelength_nm = np.asarray(wavelength_nm, dtype=float)
    if gate_V.size == 0 or wavelength_nm.size == 0:
        raise ValueError("gate and wavelength grids must be non-empty")
    if np.any(np.diff(gate_V) <= 0) or np.any(np.diff(wavelength_nm) <= 0):
        raise ValueError("grids must be strictly increasing")
    if not 0.0 < linewidth_ueV < np.inf:
        raise ValueError(f"linewidth must be finite and positive, not {linewidth_ueV} ueV")
    background = background or BackgroundModel()

    intensity = np.empty((wavelength_nm.size, gate_V.size),
                         dtype=float if seed is None else np.int64)
    for k in range(gate_V.size):
        clean = _render_column(lines, ladder, gate_V[k], wavelength_nm,
                               linewidth_ueV, background, d_i_nm)
        intensity[:, k] = (clean if seed is None
                           else np.random.default_rng(int(seed) ^ k).poisson(clean))
    return EmissionMap(gate_V=gate_V, wavelength_nm=wavelength_nm, intensity=intensity)


def load_reference_lines(path=None):
    """The bundled calibrated emission lines (or a user lines file). A
    missing or mistyped field raises ValueError naming the file and the
    field, with its record index."""
    doc, name = dataio.load_json(path, "reference_lines.json")
    dataio.check_json(doc, {"lines": [{
        "species": str, "E0_eV": float, "dipole_enm": float, "polarizability_ueV": float,
        "relative_brightness?": float, "fss?": {
            "delta_ref_ueV": float, "slope_ueV_per_V": float, "V_ref": float,
            "floor_ueV?": float}}]}, name)
    return [ExcitonLine(
        species=rec["species"], E0_eV=rec["E0_eV"], dipole_enm=rec["dipole_enm"],
        polarizability_ueV=rec["polarizability_ueV"],
        fss=None if rec.get("fss") is None else FssModel(
            *(rec["fss"][k] for k in ("delta_ref_ueV", "slope_ueV_per_V", "V_ref")),
            floor_ueV=rec["fss"].get("floor_ueV", 0.0)),
        relative_brightness=rec.get("relative_brightness", 1.0)) for rec in doc["lines"]]


def load_charge_ladder(path=None):
    """The bundled charge-state ladder (or a user ladder file). A missing or
    mistyped field raises ValueError naming the file and the field."""
    doc, name = dataio.load_json(path, "charge_ladder.json")
    dataio.check_json(doc, {
        "region_edges_V": [float], "occupancy": [float], "active_species": [[str]]}, name)
    return ChargeLadder(region_edges=tuple(doc["region_edges_V"]),
                        occupancy=tuple(doc["occupancy"]),
                        active_species=tuple(tuple(s) for s in doc["active_species"]))
