"""Workloads of the dotdiode benchmark: seeded inputs, CLI commands and checks.

A workload is fixed work made from a seed; `WORKLOADS` lists them. Building one writes its input
files (untimed); `commands()` lists the CLI invocations that one
closed-loop client runs in order; `check()` turns the outputs of one pass
into per-op results. An op is one IV bias point, one band diagram or one
optics command.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dotdiode import dataio, spectro_fit as sf
from dotdiode.device import build_mesh, load_reference_stack
from dotdiode.qd_model import (BackgroundModel, load_charge_ladder,
                               load_reference_lines, synth_emission_map)
from dotdiode.transport import detailed_balance_floor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = ROOT / "tests" / "golden"
REFERENCE = HERE / "reference"

# Relative tolerance of an IV point against the stored reference curve; an
# absolute allowance of one detailed-balance floor covers J(0) = 0.
IV_RTOL = 1e-4
CONTINUITY_MAX = 1e-6
GOLDEN_BAND_TOL = 1e-9          # eV / V, Ec, Ev and phi against tests/golden
GOLDEN_BIASES = (-0.5, 0.0, 0.5, 1.0)
N_SEEDED_BIASES = 36
BIAS_SPAN = (-2.0, 2.0)

IV_ARGS = {
    "iv_dark": [],
    "iv_lit": ["--generation", "1e22", "--vmin", "0", "--vmax", "2", "--step", "0.5"],
}

SMALL_MAP_ARGS = ["synthmap", "--seed", "42", "--vmin", "0.85", "--vmax", "1.35",
                  "--nv", "11", "--lmin", "1529", "--lmax", "1539", "--nl", "201"]
BIG_MAP_SHAPE = (601, 4001)     # (--nv, --nl)
BIG_MAP_SAMPLED_ROWS = 64

# Round-trip tolerances of the fitters: |fitted - generating value|.
PEAK_CENTER_TOL_NM = 0.005
PEAK_REL_TOL = 0.10             # fwhm and amplitude
FSS_TOL_UEV = 3.0
G2_G0_TOL = 0.05
G2_TAU_REL_TOL = 0.10
LIFETIME_TAU2_REL_TOL = 0.05
LIFETIME_TAU1_REL_TOL = 0.25
POWER_SLOPE_TOL = 0.03          # or three standard errors, whichever is larger
POWER_CUTOFF_FACTOR = 2.0       # cutoff within [p_sat / 2, 2 p_sat]
# How `fit power` exits when its automatic cutoff leaves too few points.
POWER_CUTOFF_EXIT = (1, "points below the saturation cutoff")


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple
    out: Path


@dataclass(frozen=True)
class Op:
    label: str
    ok: bool
    detail: str = ""
    known: bool = False         # a documented baseline failure (NOTES.md)


@dataclass
class Outcome:
    """What one command left behind: exit code, the captured IV curve and
    standard error."""

    rc: int
    curve: object = None
    stderr: str = ""


def band_file_name(bias):
    """File name `dotdiode bandedges` gives the diagram at `bias`."""
    return f"band_{bias:+.3f}V.csv".replace("+", "p").replace("-", "m")


def read_report(path):
    """`key = value` lines of a dotdiode report as a dict of strings."""
    entries = {}
    for line in Path(path).read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            entries[key.strip()] = value.strip()
    return entries


def _close(value, target, tol):
    return abs(value - target) <= tol


class IVWorkload:
    """`dotdiode iv` on the bundled diode, checked against a stored curve."""

    def __init__(self, name, seed, workdir):
        self.name = name
        self.workdir = Path(workdir)
        self.dark = name == "iv_dark"
        stack = load_reference_stack()
        self.floor = detailed_balance_floor(stack, build_mesh(stack))
        cols, _ = dataio.read_table(REFERENCE / f"{name}.csv")
        self.ref_bias = cols["bias_V"]
        self.ref_j = cols["J_Acm2"]

    def commands(self):
        out = self.workdir / "iv"
        return [Command("iv", ("iv", *IV_ARGS[self.name], "--out", str(out)), out)]

    def check(self, outcomes):
        (command,) = self.commands()
        outcome = outcomes[command.label]
        points = outcome.curve.points if outcome.curve is not None else ()
        csv_j = None
        if (command.out / "iv.csv").exists():
            csv_j = dataio.read_table(command.out / "iv.csv")[0]["J_Acm2"]
        ops = []
        for k, (bias, j_ref) in enumerate(zip(self.ref_bias, self.ref_j)):
            label = f"iv {bias:+.2f} V"
            if k >= len(points) or csv_j is None or csv_j.size != len(points):
                ops.append(Op(label, False, f"no result (exit {outcome.rc})"))
                continue
            pt = points[k]
            problems = []
            if not _close(pt.bias, bias, 1e-12):
                problems.append(f"bias {pt.bias} != {bias}")
            if not pt.converged:
                problems.append("not converged")
            if self.dark and bias != 0.0 and not pt.continuity_error < CONTINUITY_MAX:
                problems.append(f"continuity {pt.continuity_error:.3e}")
            if self.dark and bias == 0.0 and not abs(pt.current_density) < self.floor:
                problems.append(f"|J(0)| {abs(pt.current_density):.3e} >= floor")
            j = csv_j[k]
            if not _close(j, j_ref, IV_RTOL * abs(j_ref) + self.floor):
                problems.append(f"J {j:.6e} vs reference {j_ref:.6e}")
            ops.append(Op(label, not problems, "; ".join(problems)))
        return ops


class BandScanWorkload:
    """One `dotdiode bandedges` call: the golden biases plus seeded ones."""

    def __init__(self, name, seed, workdir):
        self.name = name
        self.workdir = Path(workdir)
        self.biases = list(GOLDEN_BIASES) + self._seeded_biases(seed)
        cols, _ = dataio.read_table(GOLDEN / band_file_name(0.0))
        self.eq_drop = cols["phi_V"][-1] - cols["phi_V"][0]

    @staticmethod
    def _seeded_biases(seed):
        """One uniform draw in each of N equal strata of the bias span.

        Stratifying keeps the total continuation work nearly seed-independent
        while no two biases share a grid. A draw whose file name (mV
        resolution) collides with an earlier bias is redrawn.
        """
        rng = np.random.default_rng(seed)
        lo, hi = BIAS_SPAN
        width = (hi - lo) / N_SEEDED_BIASES
        names = {band_file_name(b) for b in GOLDEN_BIASES}
        out = []
        for k in range(N_SEEDED_BIASES):
            while True:
                bias = float(lo + (k + rng.random()) * width)
                if band_file_name(bias) not in names:
                    break
            names.add(band_file_name(bias))
            out.append(bias)
        return out

    def commands(self):
        out = self.workdir / "bands"
        argv = ["bandedges"]
        for bias in self.biases:
            argv += ["--bias", repr(bias)]
        return [Command("bandedges", (*argv, "--out", str(out)), out)]

    def check(self, outcomes):
        (command,) = self.commands()
        rc = outcomes[command.label].rc
        summary = None
        if (command.out / "bandedges_summary.csv").exists():
            summary = dataio.read_table(command.out / "bandedges_summary.csv")[0]
        ops = []
        for k, bias in enumerate(self.biases):
            label = f"diagram {bias:+.4f} V"
            path = command.out / band_file_name(bias)
            if summary is None or not path.exists():
                ops.append(Op(label, False, f"no output (exit {rc})"))
                continue
            problems = []
            if not _close(summary["bias_V"][k], bias, 1e-12) or summary["converged"][k] != 1.0:
                problems.append("not converged")
            cols, meta = dataio.read_table(path)
            phi = cols["phi_V"]
            if not _close(float(meta["bias_V"]), bias, 1e-12):
                problems.append(f"file holds bias {meta['bias_V']}")
            if not _close(phi[-1] - phi[0] - bias, self.eq_drop, GOLDEN_BAND_TOL):
                problems.append("contact potentials do not match the bias")
            if not (np.all(np.isfinite(cols["n_cm3"])) and np.all(cols["n_cm3"] >= 0)
                    and np.all(np.isfinite(cols["p_cm3"])) and np.all(cols["p_cm3"] >= 0)):
                problems.append("carrier densities not finite and non-negative")
            if bias in GOLDEN_BIASES:
                gold, _ = dataio.read_table(GOLDEN / band_file_name(bias))
                for col in ("Ec_eV", "Ev_eV", "phi_V"):
                    err = float(np.max(np.abs(cols[col] - gold[col])))
                    if not err <= GOLDEN_BAND_TOL:
                        problems.append(f"{col} off golden by {err:.3e}")
            ops.append(Op(label, not problems, "; ".join(problems)))
        return ops


class OpticsWorkload:
    """Emission maps and a campaign of every fitter on seeded synthetic data."""

    def __init__(self, name, seed, workdir):
        self.name = name
        self.workdir = Path(workdir)
        self.inputs = self.workdir / "inputs"
        self.inputs.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        self.map_seed = int(rng.integers(2**31))
        self.truth = {}
        self._write_peaks(rng)
        self._write_voigt(rng)
        self._write_fss(rng)
        self._write_g2(rng)
        self._write_lifetime(rng)
        self._write_power(rng)

    # -- inputs (forward models of dotdiode.spectro_fit plus seeded noise)

    def _write_spectrum(self, path, spec):
        meta = {}
        if spec.polarizer_angle_deg is not None:
            meta["polarizer_angle_deg"] = dataio.format_float(spec.polarizer_angle_deg)
        dataio.write_table(path, [spec.wavelength_nm, spec.counts],
                           ["wavelength_nm", "counts"], meta=meta)

    def _write_peaks(self, rng):
        wl = np.linspace(1528.0, 1540.0, 2401)
        peaks = [(float(rng.uniform(c - 0.5, c + 0.5)), float(rng.uniform(0.05, 0.15)),
                  float(rng.uniform(500.0, 2000.0))) for c in (1530.0, 1534.0, 1538.0)]
        spec = sf.synth_spectrum(wl, peaks, background=20.0,
                                 seed=int(rng.integers(2**31)))
        self._write_spectrum(self.inputs / "peaks3.csv", spec)
        self.truth["peaks"] = peaks

    def _write_voigt(self, rng):
        wl = np.linspace(1532.0, 1536.0, 801)
        peak = (float(rng.uniform(1533.0, 1535.0)), float(rng.uniform(0.08, 0.2)),
                float(rng.uniform(500.0, 2000.0)))
        clean = 20.0 + sf.voigt_profile_peak(wl, *peak)
        counts = np.random.default_rng(int(rng.integers(2**31))).poisson(clean)
        self._write_spectrum(self.inputs / "voigt.csv",
                             sf.Spectrum(wavelength_nm=wl, counts=counts.astype(float)))
        self.truth["voigt"] = [peak]

    def _write_fss(self, rng):
        center = float(rng.uniform(1529.0, 1539.0))
        fss = float(rng.uniform(10.0, 40.0))
        series = sf.synth_polarization_series(
            center, fss, np.linspace(0.0, 345.0, 24),
            theta0_deg=float(rng.uniform(0.0, 180.0)), seed=int(rng.integers(2**31)))
        self.fss_paths = []
        for spec in series:
            path = self.inputs / f"fss_{spec.polarizer_angle_deg:05.1f}.csv"
            self._write_spectrum(path, spec)
            self.fss_paths.append(path)
        self.truth["fss"] = fss

    def _write_g2(self, rng):
        g0 = float(rng.uniform(0.02, 0.2))
        tau_c = float(rng.uniform(1.0, 3.0))
        trace = sf.synth_g2_trace(g0, tau_c, 0.3, 0.256, tau_max_ns=25.0,
                                  plateau_counts=1000.0, seed=int(rng.integers(2**31)))
        dataio.write_table(self.inputs / "g2.csv", [trace.delay_ns, trace.coincidences],
                           ["delay_ns", "coincidences"],
                           meta={"bin_width_ns": dataio.format_float(trace.bin_width_ns),
                                 "irf_sigma_ns": dataio.format_float(trace.irf_sigma_ns)})
        self.truth["g2"] = (g0, tau_c)

    def _write_lifetime(self, rng):
        tau1 = float(rng.uniform(0.3, 0.6))
        tau2 = float(rng.uniform(1.5, 3.0))
        frac1 = float(rng.uniform(0.2, 0.4))
        trace = sf.synth_decay_trace([(tau1, frac1), (tau2, 1.0 - frac1)],
                                     seed=int(rng.integers(2**31)))
        dataio.write_table(self.inputs / "decay.csv", [trace.time_ns, trace.counts],
                           ["time_ns", "counts"])
        self.truth["lifetime"] = (tau1, tau2)

    def _write_power(self, rng):
        slope = float(rng.uniform(0.8, 1.6))
        p, i = sf.synth_power_series(slope, np.geomspace(0.01, 100.0, 60),
                                     noise_frac=0.02, p_sat_uW=10.0,
                                     seed=int(rng.integers(2**31)))
        dataio.write_table(self.inputs / "power.csv", [p, i], ["power_uW", "intensity"])
        self.truth["power"] = (slope, 10.0)

    # -- commands and checks

    def commands(self):
        inputs = self.inputs
        nv, nl = BIG_MAP_SHAPE
        argvs = {
            "map_large": ("synthmap", "--seed", str(self.map_seed), "--background",
                          "--nv", str(nv), "--nl", str(nl)),
            "map_small": tuple(SMALL_MAP_ARGS),
            "fit_peaks": ("fit", "peaks", "--data", str(inputs / "peaks3.csv"),
                          "--n-peaks", "3"),
            "fit_voigt": ("fit", "peaks", "--data", str(inputs / "voigt.csv"),
                          "--shape", "voigt"),
            "fit_fss": ("fit", "fss", *[a for p in self.fss_paths for a in ("--data", str(p))]),
            "fit_g2": ("fit", "g2", "--data", str(inputs / "g2.csv")),
            "fit_lifetime": ("fit", "lifetime", "--data", str(inputs / "decay.csv")),
            "fit_power": ("fit", "power", "--data", str(inputs / "power.csv")),
        }
        return [Command(label, (*argv, "--out", str(self.workdir / label)), self.workdir / label)
                for label, argv in argvs.items()]

    def check(self, outcomes):
        checks = {
            "map_large": self._check_map_large,
            "map_small": self._check_map_small,
            "fit_peaks": lambda out: self._check_peaks(out, self.truth["peaks"]),
            "fit_voigt": lambda out: self._check_peaks(out, self.truth["voigt"]),
            "fit_fss": self._check_fss,
            "fit_g2": self._check_g2,
            "fit_lifetime": self._check_lifetime,
            "fit_power": self._check_power,
        }
        ops = []
        for command in self.commands():
            outcome = outcomes[command.label]
            if outcome.rc != 0:
                message = outcome.stderr.strip().splitlines()[-1:]
                ops.append(Op(command.label, False, f"exit {outcome.rc}: {''.join(message)}",
                              self._power_cutoff_defect(command.label, outcome)))
                continue
            problems = checks[command.label](command.out)
            ops.append(Op(command.label, not problems, "; ".join(problems),
                          self._power_cutoff_defect(command.label, outcome, problems)))
        return ops

    @staticmethod
    def _power_cutoff_defect(label, outcome, problems=()):
        """Whether a failed op shows only the documented defect of the power
        fit's automatic cutoff (NOTES.md): too few points left, or a wrong
        cutoff with the slope still right."""
        if label != "fit_power":
            return False
        rc, message = POWER_CUTOFF_EXIT
        if outcome.rc != 0:
            return outcome.rc == rc and message in outcome.stderr
        return bool(problems) and all(p.startswith("cutoff ") for p in problems)

    def _check_map_large(self, out):
        """Line count, then sampled rows against the same map made in-process.

        The file is streamed so the check adds nothing to peak memory.
        """
        nv, nl = BIG_MAP_SHAPE
        expected = synth_emission_map(
            load_reference_lines(), load_charge_ladder(), np.linspace(0.8, 1.4, nv),
            np.linspace(1528.0, 1540.0, nl), background=BackgroundModel(),
            seed=self.map_seed)
        sample = set(np.linspace(0, nl - 1, BIG_MAP_SAMPLED_ROWS).astype(int).tolist())
        problems = []
        row = -1
        with open(out / "emission_map.csv") as fh:
            for line in fh:
                if line.startswith("#"):
                    continue
                if row >= 0 and row in sample:
                    values = np.array(line.split(","), dtype=float)
                    if values.size != nv + 1 or values[0] != expected.wavelength_nm[row]:
                        problems.append(f"row {row} malformed")
                    elif not np.array_equal(values[1:], expected.intensity[row]):
                        problems.append(f"row {row} differs from the seeded map")
                row += 1
        if row != nl:
            problems.append(f"{row} data rows, expected {nl}")
        return problems

    def _check_map_small(self, out):
        def payload(path):
            return [l for l in Path(path).read_text().splitlines() if not l.startswith("#")]
        if payload(out / "emission_map.csv") != payload(GOLDEN / "emission_map_small.csv"):
            return ["payload differs from tests/golden/emission_map_small.csv"]
        return []

    def _check_peaks(self, out, truth):
        rep = read_report(out / "fit_report.txt")
        if int(rep.get("n_accepted", -1)) != len(truth):
            return [f"{rep.get('n_accepted')} accepted peaks, expected {len(truth)}"]
        problems = []
        for i, (center, fwhm, amp) in enumerate(sorted(truth)):
            got = [float(rep[f"peak{i}_{key}"]) for key in ("center_nm", "fwhm_nm",
                                                            "amplitude")]
            if not _close(got[0], center, PEAK_CENTER_TOL_NM):
                problems.append(f"peak{i} center {got[0]:.5f} vs {center:.5f}")
            if not _close(got[1], fwhm, PEAK_REL_TOL * fwhm):
                problems.append(f"peak{i} fwhm {got[1]:.5f} vs {fwhm:.5f}")
            if not _close(got[2], amp, PEAK_REL_TOL * amp):
                problems.append(f"peak{i} amplitude {got[2]:.1f} vs {amp:.1f}")
        return problems

    def _check_fss(self, out):
        got = float(read_report(out / "fit_report.txt")["fss_ueV"])
        truth = self.truth["fss"]
        return [] if _close(got, truth, FSS_TOL_UEV) else [f"fss {got:.2f} vs {truth:.2f} ueV"]

    def _check_g2(self, out):
        rep = read_report(out / "fit_report.txt")
        g0, tau_c = self.truth["g2"]
        problems = []
        if not _close(float(rep["g0_deconvolved"]), g0, G2_G0_TOL):
            problems.append(f"g0 {rep['g0_deconvolved']} vs {g0:.4f}")
        if not _close(float(rep["tau_c_ns"]), tau_c, G2_TAU_REL_TOL * tau_c):
            problems.append(f"tau_c {rep['tau_c_ns']} vs {tau_c:.4f}")
        return problems

    def _check_lifetime(self, out):
        rep = read_report(out / "fit_report.txt")
        tau1, tau2 = self.truth["lifetime"]
        problems = []
        if not _close(float(rep["tau2_ns"]), tau2, LIFETIME_TAU2_REL_TOL * tau2):
            problems.append(f"tau2 {rep['tau2_ns']} vs {tau2:.4f}")
        if not _close(float(rep["tau1_ns"]), tau1, LIFETIME_TAU1_REL_TOL * tau1):
            problems.append(f"tau1 {rep['tau1_ns']} vs {tau1:.4f}")
        return problems

    def _check_power(self, out):
        rep = read_report(out / "fit_report.txt")
        slope, p_sat = self.truth["power"]
        problems = []
        got, err = float(rep["slope"]), float(rep["slope_err"])
        if not _close(got, slope, max(3.0 * err, POWER_SLOPE_TOL)):
            problems.append(f"slope {got:.4f} vs {slope:.4f}")
        cutoff = float(rep["cutoff_uW"])
        if not p_sat / POWER_CUTOFF_FACTOR <= cutoff <= p_sat * POWER_CUTOFF_FACTOR:
            problems.append(f"cutoff {cutoff:.3g} uW vs saturation {p_sat:.3g} uW")
        return problems


class LitOpticsWorkload:
    """The lit IV sweep, then the optics campaign, in one closed loop.

    The optics commands are interpreter-bound, and on a shared host their
    time swings by up to 2x over tens of seconds: too much for a workload
    of their own (NOTES.md, Steadiness). After the IV sweep they are about
    a tenth of the pass.
    """

    def __init__(self, name, seed, workdir):
        self.name = name
        self.workdir = Path(workdir)
        self.parts = (IVWorkload("iv_lit", seed, workdir),
                      OpticsWorkload("optics", seed, workdir))

    def commands(self):
        return [command for part in self.parts for command in part.commands()]

    def check(self, outcomes):
        return [op for part in self.parts for op in part.check(outcomes)]


WORKLOADS = {
    "iv_dark": IVWorkload,
    "iv_lit_optics": LitOpticsWorkload,
    "band_scan": BandScanWorkload,
}


def make_workload(name, seed, workdir):
    return WORKLOADS[name](name, seed, workdir)
