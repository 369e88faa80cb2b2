"""Command-line front end: band diagrams, IV sweeps, Stark tuning tables,
synthetic emission maps and the fitting suite, all emitting plot-ready CSV
plus plain-text reports with a machine-readable key = value section.

Every command is deterministic for a fixed configuration. Only
``synthmap`` draws random numbers: with ``--seed`` it Poisson-samples the
counts, and it echoes the seed into its output. Exit codes: 0 success, 1
input or configuration error (a usage error too, reported in one line that
starts ``dotdiode <command>: ``), 2 numerical non-convergence (never
success on unconverged physics).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__, constants, dataio
from .device import build_mesh, load_reference_stack
from .electrostatics import NonConvergenceError, band_sweep, field_lever_arm
# perfbench/test_perfbench.py checks that its tracer wraps this binding
from .electrostatics import solve_bias  # noqa: F401
from .transport import iv_sweep, MESA_AREA_CM2
from .qd_model import (load_reference_lines, load_charge_ladder, tuning_range,
                       stark_wavelength, synth_emission_map, BackgroundModel,
                       ZERO_BACKGROUND)
from . import spectro_fit as sf

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NONCONVERGED = 2

# Largest inputs a command accepts, each checked before anything is built;
# the benchmark runs 40 biases and a 601 x 4001 map.
MAX_IV_POINTS = 2001
MAX_STARK_POINTS = 100_000
MAX_MAP_CELLS = 10_000_000


class _Parser(argparse.ArgumentParser):
    """argparse with two changes. A token such as -1e-3 or -inf is a negative
    number, not an option name: argparse alone only takes -1 and -0.5 forms
    as numbers. A usage error exits EXIT_INPUT with one line, since exit 2
    means non-convergence here."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        self.exit(EXIT_INPUT, f"{self.prog}: {message}\n")


def _require_finite(args, *names):
    """Raise ValueError naming the first option of `names` that is not finite."""
    for name in names:
        if not math.isfinite(getattr(args, name)):
            raise ValueError(f"{name} must be finite, not {getattr(args, name)}")


def _require_count(args, least, *names):
    """Raise ValueError naming the first count option of `names` below `least`."""
    for name in names:
        if getattr(args, name) < least:
            raise ValueError(f"--{name} must be at least {least}, not {getattr(args, name)}")


def _outdir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _stack_and_mesh(args):
    stack = load_reference_stack(args.device)
    return stack, build_mesh(stack, args.max_spacing, args.fine_spacing, args.refine_width)


def _report_header(args, command):
    header = {"tool": "dotdiode", "version": __version__, "command": command}
    if hasattr(args, "seed"):           # synthmap, the only command with --seed
        header["seed"] = args.seed
    return header


def _band_file_name(bias):
    return f"band_{bias:+.3f}V.csv".replace("+", "p").replace("-", "m")


def cmd_bandedges(args):
    if not args.bias:
        raise ValueError("at least one --bias is required")
    stack, mesh = _stack_and_mesh(args)
    sweep = band_sweep(stack, mesh, args.bias, args.statistics)
    names = {}
    for bias in args.bias:
        name = _band_file_name(bias)
        other = names.setdefault(name, bias)
        if other != bias:
            raise ValueError(f"biases {other} V and {bias} V share the file name {name}")
    out = _outdir(args)

    solved = {}
    for bias, diagram in sweep:
        if isinstance(diagram, NonConvergenceError):
            print(f"dotdiode bandedges: {diagram}", file=sys.stderr)
            solved[bias] = (float("nan"), False)
            continue
        diagram.to_csv(out / _band_file_name(bias))
        solved[bias] = (diagram.newton_update, diagram.converged)
    rows = [(bias, *solved[bias]) for bias in args.bias]
    dataio.write_table(
        out / "bandedges_summary.csv",
        [np.array([r[0] for r in rows]),
         np.array([r[1] for r in rows]),
         np.array([r[2] for r in rows], dtype=bool)],
        ["bias_V", "newton_update", "converged"],
        meta=_report_header(args, "bandedges"))
    return EXIT_OK if all(ok for _, ok in solved.values()) else EXIT_NONCONVERGED


def cmd_iv(args):
    # a finite point count with a finite step > 0 implies finite vmin and vmax
    if not (0.0 < args.step < math.inf
            and math.isfinite((args.vmax - args.vmin) / args.step)):
        raise ValueError("vmin, vmax and step must be finite with step > 0 and a finite "
                         "point count")
    if not 0.0 < args.area < math.inf:
        raise ValueError("area must be finite and > 0")
    if args.vmax < args.vmin:
        raise ValueError("vmax must not be below vmin")
    single = args.vmax == args.vmin
    n = 1 if single else int(round((args.vmax - args.vmin) / args.step)) + 1
    if n > MAX_IV_POINTS:
        raise ValueError(f"vmin {args.vmin} V to vmax {args.vmax} V in steps of {args.step} V "
                         f"give {n} bias points, above the cap of {MAX_IV_POINTS}")
    stack, mesh = _stack_and_mesh(args)
    biases = [args.vmin] if single else [args.vmin + k * args.step for k in range(n)]
    curve = iv_sweep(stack, mesh, biases, args.generation, args.statistics)
    curve = dataclasses.replace(curve, device_area_cm2=args.area)
    out = _outdir(args)
    meta = _report_header(args, "iv")
    meta["generation_cm3s"] = args.generation
    curve.to_csv(out / "iv.csv", meta=meta)
    failed = [pt.bias for pt in curve.points if not pt.converged]
    if failed:
        raise NonConvergenceError(
            f"no converged solution at {failed} V (T = {stack.temperature} K)")
    return EXIT_OK


def cmd_stark(args):
    _require_finite(args, "vmin", "vmax")
    _require_count(args, 2, "points")
    lines = load_reference_lines(args.lines)
    if args.vmax <= args.vmin:
        raise ValueError("vmax must exceed vmin")
    if args.points > MAX_STARK_POINTS:
        raise ValueError(f"--points {args.points} is above the cap of {MAX_STARK_POINTS}")
    # before any file is written: tuning_range refuses a window that leaves the float range
    entries = {f"tuning_range_{line.species}_nm":
               tuning_range(line, args.vmin, args.vmax, args.di) for line in lines}
    entries.update(d_i_nm=args.di, window_V=f"{args.vmin} to {args.vmax}")
    volts = np.linspace(args.vmin, args.vmax, args.points)
    fields = field_lever_arm(volts, args.di)
    out = _outdir(args)
    dataio.write_table(out / "stark_wavelengths.csv",
                       [volts, *(stark_wavelength(line, fields) for line in lines)],
                       ["gate_V", *(f"lambda_{line.species}_nm" for line in lines)],
                       meta=_report_header(args, "stark"))
    dataio.write_report(out / "stark_report.txt", "dotdiode stark tuning report",
                        [("run", _report_header(args, "stark")),
                         ("results", entries)])
    return EXIT_OK


def cmd_synthmap(args):
    _require_finite(args, "vmin", "vmax", "lmin", "lmax")
    _require_count(args, 1, "nv", "nl")
    if args.seed is not None:
        _require_count(args, 0, "seed")
    lines = load_reference_lines(args.lines)
    ladder = load_charge_ladder(args.ladder)
    if args.nv * args.nl > MAX_MAP_CELLS:
        raise ValueError(f"--nv {args.nv} by --nl {args.nl} gives {args.nv * args.nl} cells, "
                         f"above the cap of {MAX_MAP_CELLS}")
    gate = np.linspace(args.vmin, args.vmax, args.nv)
    lam = np.linspace(args.lmin, args.lmax, args.nl)
    background = BackgroundModel() if args.background else ZERO_BACKGROUND
    emission = synth_emission_map(lines, ladder, gate, lam, linewidth_ueV=args.linewidth,
                                  background=background, seed=args.seed, d_i_nm=args.di)
    out = _outdir(args)
    emission.to_csv(out / "emission_map.csv", meta=_report_header(args, "synthmap"))
    return EXIT_OK


def _meta_float(path, meta, key, default=None):
    """Metadata value `key` of the file at `path` as a float; `default` when
    the key is absent."""
    if key not in meta:
        return default
    try:
        return float(meta[key])
    except ValueError:
        raise ValueError(f"{path}: metadata {key} = {meta[key]!r} is not a number") from None


def _read_spectrum(path):
    cols, meta = dataio.read_columns(path, ("wavelength_nm", "counts"))
    return sf.Spectrum(wavelength_nm=cols["wavelength_nm"], counts=cols["counts"],
                       power_uW=_meta_float(path, meta, "power_uW"),
                       gate_V=_meta_float(path, meta, "gate_V"),
                       polarizer_angle_deg=_meta_float(path, meta, "polarizer_angle_deg"))


def _estimates(fit):
    """A FitResult's parameters, then their uncertainties as `<name>_err`."""
    return {**fit.parameters, **{f"{k}_err": v for k, v in fit.uncertainties.items()}}


def _model_columns(x_name, x, y_name, y, model):
    return {x_name: x, y_name: y, "model": model, "residual": y - model}


# Each fitter returns its report entries, its residual columns by name and
# whether the fit converged.

def _fit_peaks(args):
    spec = _read_spectrum(args.data[0])
    accepted, discarded = sf.fit_peaks(spec, n_peaks=args.n_peaks,
                                       snr_gate=args.snr_gate, shape=args.shape)
    entries = {"n_accepted": len(accepted), "n_discarded": len(discarded),
               "snr_gate": args.snr_gate}
    for i, p in enumerate(accepted):
        entries.update({f"peak{i}_center_nm": p.center_nm, f"peak{i}_fwhm_nm": p.fwhm_nm,
                        f"peak{i}_amplitude": p.amplitude, f"peak{i}_snr": p.snr})
    for i, p in enumerate(discarded):
        entries.update({f"discarded{i}_center_nm": p.center_nm, f"discarded{i}_snr": p.snr})
    model = sf.peaks_model(spec.wavelength_nm, accepted + discarded)
    return (entries, _model_columns("wavelength_nm", spec.wavelength_nm, "counts",
                                    spec.counts, model),
            all(p.converged for p in accepted + discarded))


def _fit_fss(args):
    series = [_read_spectrum(p) for p in args.data]
    result = sf.extract_fss(series)
    entries = {"fss_ueV": result.delta_ueV, "fss_err_ueV": result.delta_err_ueV,
               "theta0_deg": result.theta0_deg, "phase_defined": result.phase_defined,
               "minmax_ueV": result.minmax_ueV,
               "consistent_with_zero": result.delta_ueV < 2.0 * result.delta_err_ueV}
    columns = {"polarizer_angle_deg": np.array([s.polarizer_angle_deg for s in series]),
               "peak_energy_ueV": result.energies_ueV}
    return entries, columns, True


def _fit_power(args):
    cols, _ = dataio.read_columns(args.data[0], ("power_uW", "intensity"))
    fit = sf.fit_power_law(cols["power_uW"], cols["intensity"],
                           saturation_cutoff=args.saturation_cutoff)
    entries = {"slope": fit.slope, "slope_err": fit.stderr, "cutoff_uW": fit.cutoff_uW,
               "n_used": fit.n_used}
    return (entries, _model_columns("power_uW", cols["power_uW"], "intensity",
                                    cols["intensity"], fit.model), True)


def _fit_g2(args):
    path = args.data[0]
    cols, meta = dataio.read_columns(path, ("delay_ns", "coincidences"))
    trace = sf.G2Trace(delay_ns=cols["delay_ns"], coincidences=cols["coincidences"],
                       bin_width_ns=_meta_float(path, meta, "bin_width_ns", 0.0),
                       irf_sigma_ns=_meta_float(path, meta, "irf_sigma_ns", 0.0))
    fit = sf.fit_g2(trace)
    entries = {**_estimates(fit), "tau_c_identifiable": fit.flags["tau_c_identifiable"],
               "reduced_chi2": fit.reduced_chi2}
    return (entries, _model_columns("delay_ns", trace.delay_ns, "coincidences",
                                    trace.coincidences, fit.model), fit.converged)


def _fit_lifetime(args):
    cols, _ = dataio.read_columns(args.data[0], ("time_ns", "counts"))
    trace = sf.DecayTrace(time_ns=cols["time_ns"], counts=cols["counts"])
    fit = sf.fit_lifetime(trace)
    entries = {**_estimates(fit), "degenerate": fit.flags["degenerate"],
               "reduced_chi2_biexp": fit.flags["chi2_biexp"],
               "reduced_chi2_single": fit.flags["chi2_single"]}
    return (entries, _model_columns("time_ns", trace.time_ns, "counts", trace.counts,
                                    fit.model), fit.converged)


_FITTERS = {"peaks": _fit_peaks, "fss": _fit_fss, "power": _fit_power, "g2": _fit_g2,
            "lifetime": _fit_lifetime}


def cmd_fit(args):
    entries, columns, converged = _FITTERS[args.what](args)
    out = _outdir(args)
    dataio.write_table(out / "fit_residuals.csv", list(columns.values()), list(columns))
    header = {**_report_header(args, f"fit {args.what}"), "inputs": ";".join(args.data)}
    dataio.write_report(out / "fit_report.txt", f"dotdiode fit report: {args.what}",
                        [("run", header), ("results", entries)])
    if not converged:
        raise NonConvergenceError(f"the {args.what} fit did not converge")
    return EXIT_OK


def build_parser():
    parser = _Parser(
        prog="dotdiode",
        description="gated quantum-dot diode simulator and spectroscopy toolkit")
    parser.add_argument("--version", action="version", version=f"dotdiode {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="dotdiode_out", help="output directory")

    solver = argparse.ArgumentParser(add_help=False)    # bandedges and iv only
    solver.add_argument("--device", default=None,
                        help="device config JSON file (default: bundled reference diode)")
    solver.add_argument("--max-spacing", type=float, default=2.0, dest="max_spacing")
    solver.add_argument("--fine-spacing", type=float, default=0.125, dest="fine_spacing")
    solver.add_argument("--refine-width", type=float, default=10.0, dest="refine_width")
    solver.add_argument("--statistics", choices=["fermi", "boltzmann"], default="fermi")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bandedges", parents=[common, solver],
                       help="band diagrams at a list of gate voltages")
    p.add_argument("--bias", type=float, action="append", default=[],
                   help="gate voltage in volts (repeatable)")
    p.set_defaults(func=cmd_bandedges)

    p = sub.add_parser("iv", parents=[common, solver], help="drift-diffusion IV sweep")
    p.add_argument("--vmin", type=float, default=-1.0)
    p.add_argument("--vmax", type=float, default=2.0)
    p.add_argument("--step", type=float, default=0.25)
    p.add_argument("--generation", type=float, default=0.0,
                   help="uniform generation rate in undoped layers [cm^-3 s^-1]")
    p.add_argument("--area", type=float, default=MESA_AREA_CM2,
                   help="device area [cm^2] for absolute current")
    p.set_defaults(func=cmd_iv)

    p = sub.add_parser("stark", parents=[common],
                       help="Stark-shift wavelengths and tuning ranges")
    p.add_argument("--lines", default=None, help="emission-lines JSON (default bundled)")
    p.add_argument("--vmin", type=float, default=0.59)
    p.add_argument("--vmax", type=float, default=1.96)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--di", type=float, default=240.0, help="intrinsic thickness [nm]")
    p.set_defaults(func=cmd_stark)

    p = sub.add_parser("synthmap", parents=[common],
                       help="synthetic gate-voltage / wavelength emission map")
    p.add_argument("--lines", default=None)
    p.add_argument("--ladder", default=None)
    p.add_argument("--vmin", type=float, default=0.8)
    p.add_argument("--vmax", type=float, default=1.4)
    p.add_argument("--nv", type=int, default=61)
    p.add_argument("--lmin", type=float, default=1528.0)
    p.add_argument("--lmax", type=float, default=1540.0)
    p.add_argument("--nl", type=int, default=401)
    p.add_argument("--linewidth", type=float, default=30.0, help="FWHM [ueV]")
    p.add_argument("--di", type=float, default=240.0)
    p.add_argument("--background", action="store_true",
                   help="add the phenomenological gate-dependent background")
    p.add_argument("--seed", type=int, default=None,
                   help="Poisson-sample the counts with this seed")
    p.set_defaults(func=cmd_synthmap)

    p = sub.add_parser("fit", parents=[common], help="run a fitter on CSV data")
    p.add_argument("what", choices=list(_FITTERS))
    p.add_argument("--data", action="append", required=True,
                   help="input CSV (repeat for fss series)")
    p.add_argument("--n-peaks", type=int, default=1, dest="n_peaks")
    p.add_argument("--snr-gate", type=float, default=5.0, dest="snr_gate")
    p.add_argument("--shape", choices=["lorentzian", "gaussian", "voigt"],
                   default="lorentzian")
    p.add_argument("--saturation-cutoff", type=float, default=None,
                   dest="saturation_cutoff")
    p.set_defaults(func=cmd_fit)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"dotdiode {args.command}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        print(f"dotdiode {args.command}: out of memory: {exc or 'MemoryError'}", file=sys.stderr)
        return EXIT_INPUT
    except NonConvergenceError as exc:
        print(f"dotdiode {args.command}: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED


if __name__ == "__main__":
    sys.exit(main())
