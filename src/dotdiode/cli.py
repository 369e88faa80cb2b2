"""Command-line front end: band diagrams, IV sweeps, Stark tuning tables,
synthetic emission maps and the fitting suite, all emitting plot-ready CSV
plus plain-text reports with a machine-readable key = value section.

Every command is deterministic for a fixed configuration. Only
``synthmap`` draws random numbers: with ``--seed`` it Poisson-samples the
counts, and it echoes the seed into its output. Exit codes: 0 success, 1
input or configuration error, 2 numerical non-convergence (never success on
unconverged physics).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import __version__, constants, dataio
from .device import (SchemaError, MeshOptionError, parse_stack, build_mesh,
                     load_reference_stack)
from .electrostatics import NonConvergenceError, solve_bias, field_lever_arm
from .transport import iv_sweep, MESA_AREA_CM2
from .qd_model import (load_reference_lines, load_charge_ladder, tuning_range,
                       stark_wavelength, synth_emission_map, BackgroundModel,
                       ZERO_BACKGROUND, LadderRangeError)
from . import spectro_fit as sf

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NONCONVERGED = 2


def _outdir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_stack(args):
    if args.device is None:
        return load_reference_stack()
    return parse_stack(args.device)


def _report_header(args, command):
    header = {"tool": "dotdiode", "version": __version__, "command": command}
    if hasattr(args, "seed"):           # synthmap, the only command with --seed
        header["seed"] = args.seed
    return header


def cmd_bandedges(args):
    if not args.bias:
        print("bandedges: at least one --bias is required", file=sys.stderr)
        return EXIT_INPUT
    stack = _load_stack(args)
    mesh = build_mesh(stack, args.max_spacing, args.fine_spacing, args.refine_width)
    out = _outdir(args)

    all_ok = True
    rows = []
    for bias in args.bias:
        try:
            diagram = solve_bias(stack, mesh, bias, args.statistics)
        except NonConvergenceError as exc:
            print(f"bandedges: {exc}", file=sys.stderr)
            all_ok = False
            rows.append((bias, float("nan"), False))
            continue
        name = f"band_{bias:+.3f}V.csv".replace("+", "p").replace("-", "m")
        diagram.to_csv(out / name)
        rows.append((bias, diagram.newton_update, diagram.converged))
        all_ok = all_ok and diagram.converged
    dataio.write_table(
        out / "bandedges_summary.csv",
        [np.array([r[0] for r in rows]),
         np.array([r[1] for r in rows]),
         np.array([float(r[2]) for r in rows])],
        ["bias_V", "newton_update", "converged"],
        meta=_report_header(args, "bandedges"))
    return EXIT_OK if all_ok else EXIT_NONCONVERGED


def cmd_iv(args):
    stack = _load_stack(args)
    mesh = build_mesh(stack, args.max_spacing, args.fine_spacing, args.refine_width)
    if args.vmax < args.vmin:
        print("iv: vmax must not be below vmin", file=sys.stderr)
        return EXIT_INPUT
    if args.vmax == args.vmin:
        biases = [args.vmin]
    else:
        n = int(round((args.vmax - args.vmin) / args.step)) + 1
        biases = [args.vmin + k * args.step for k in range(n)]
    curve = iv_sweep(stack, mesh, biases, args.generation, args.statistics)
    curve = dataclasses.replace(curve, device_area_cm2=args.area)
    out = _outdir(args)
    meta = _report_header(args, "iv")
    meta["generation_cm3s"] = dataio.format_float(args.generation)
    curve.to_csv(out / "iv.csv", meta=meta)
    return EXIT_OK if all(pt.converged for pt in curve.points) else EXIT_NONCONVERGED


def cmd_stark(args):
    lines = load_reference_lines(args.lines)
    if args.vmax <= args.vmin:
        print("stark: vmax must exceed vmin", file=sys.stderr)
        return EXIT_INPUT
    volts = np.linspace(args.vmin, args.vmax, args.points)
    out = _outdir(args)
    columns = [volts]
    names = ["gate_V"]
    report = []
    for line in lines:
        fields = np.array([field_lever_arm(v, args.di) for v in volts])
        columns.append(stark_wavelength(line, fields))
        names.append(f"lambda_{line.species}_nm")
        span = tuning_range(line, args.vmin, args.vmax, args.di)
        report.append((line.species, span))
    dataio.write_table(out / "stark_wavelengths.csv", columns, names,
                       meta=_report_header(args, "stark"))
    entries = {f"tuning_range_{species}_nm": dataio.format_float(span)
               for species, span in report}
    entries["d_i_nm"] = dataio.format_float(args.di)
    entries["window_V"] = f"{args.vmin} to {args.vmax}"
    dataio.write_report(out / "stark_report.txt", "dotdiode stark tuning report",
                        [("run", _report_header(args, "stark")),
                         ("results", entries)])
    return EXIT_OK


def cmd_synthmap(args):
    lines = load_reference_lines(args.lines)
    ladder = load_charge_ladder(args.ladder)
    gate = np.linspace(args.vmin, args.vmax, args.nv)
    lam = np.linspace(args.lmin, args.lmax, args.nl)
    background = BackgroundModel() if args.background else ZERO_BACKGROUND
    try:
        emission = synth_emission_map(lines, ladder, gate, lam,
                                      linewidth_ueV=args.linewidth,
                                      background=background, seed=args.seed,
                                      d_i_nm=args.di)
    except LadderRangeError as exc:
        print(f"synthmap: {exc}", file=sys.stderr)
        return EXIT_INPUT
    out = _outdir(args)
    emission.to_csv(out / "emission_map.csv", meta=_report_header(args, "synthmap"))
    return EXIT_OK


def _read_spectrum(path):
    cols, meta = dataio.read_columns(path, ("wavelength_nm", "counts"))
    def opt(key):
        return float(meta[key]) if key in meta else None
    return sf.Spectrum(wavelength_nm=cols["wavelength_nm"], counts=cols["counts"],
                       power_uW=opt("power_uW"), gate_V=opt("gate_V"),
                       polarizer_angle_deg=opt("polarizer_angle_deg"))


def cmd_fit(args):
    out = _outdir(args)
    header = _report_header(args, f"fit {args.what}")
    header["inputs"] = ";".join(args.data)

    if args.what == "peaks":
        spec = _read_spectrum(args.data[0])
        accepted, discarded = sf.fit_peaks(spec, n_peaks=args.n_peaks,
                                           snr_gate=args.snr_gate, shape=args.shape)
        entries = {"n_accepted": len(accepted), "n_discarded": len(discarded),
                   "snr_gate": dataio.format_float(args.snr_gate)}
        for i, p in enumerate(accepted):
            entries[f"peak{i}_center_nm"] = dataio.format_float(p.center_nm)
            entries[f"peak{i}_fwhm_nm"] = dataio.format_float(p.fwhm_nm)
            entries[f"peak{i}_amplitude"] = dataio.format_float(p.amplitude)
            entries[f"peak{i}_snr"] = dataio.format_float(p.snr)
        for i, p in enumerate(discarded):
            entries[f"discarded{i}_center_nm"] = dataio.format_float(p.center_nm)
            entries[f"discarded{i}_snr"] = dataio.format_float(p.snr)
        converged = all(p.converged for p in accepted + discarded)
        model = sf.peaks_model(spec.wavelength_nm, accepted + discarded)
        dataio.write_table(out / "fit_residuals.csv",
                           [spec.wavelength_nm, spec.counts, model, spec.counts - model],
                           ["wavelength_nm", "counts", "model", "residual"])
    elif args.what == "fss":
        series = [_read_spectrum(p) for p in args.data]
        result = sf.extract_fss(series)
        entries = {
            "fss_ueV": dataio.format_float(result.delta_ueV),
            "fss_err_ueV": dataio.format_float(result.delta_err_ueV),
            "theta0_deg": dataio.format_float(result.theta0_deg),
            "phase_defined": result.phase_defined,
            "minmax_ueV": dataio.format_float(result.minmax_ueV),
            "consistent_with_zero": result.delta_ueV < 2.0 * result.delta_err_ueV,
        }
        converged = True
        angles = np.array([s.polarizer_angle_deg for s in series])
        dataio.write_table(out / "fit_residuals.csv",
                           [angles, result.energies_ueV],
                           ["polarizer_angle_deg", "peak_energy_ueV"])
    elif args.what == "power":
        cols, _ = dataio.read_columns(args.data[0], ("power_uW", "intensity"))
        fit = sf.fit_power_law(cols["power_uW"], cols["intensity"],
                               saturation_cutoff=args.saturation_cutoff)
        entries = {"slope": dataio.format_float(fit.slope),
                   "slope_err": dataio.format_float(fit.stderr),
                   "cutoff_uW": dataio.format_float(fit.cutoff_uW),
                   "n_used": fit.n_used}
        converged = True
        model = np.exp(fit.intercept) * cols["power_uW"] ** fit.slope
        dataio.write_table(out / "fit_residuals.csv",
                           [cols["power_uW"], cols["intensity"], model,
                            cols["intensity"] - model],
                           ["power_uW", "intensity", "model", "residual"])
    elif args.what == "g2":
        cols, meta = dataio.read_columns(args.data[0], ("delay_ns", "coincidences"))
        trace = sf.G2Trace(delay_ns=cols["delay_ns"], coincidences=cols["coincidences"],
                           bin_width_ns=float(meta.get("bin_width_ns", 0.0)),
                           irf_sigma_ns=float(meta.get("irf_sigma_ns", 0.0)))
        fit = sf.fit_g2(trace)
        entries = {k: dataio.format_float(v) for k, v in fit.parameters.items()}
        entries.update({f"{k}_err": dataio.format_float(v)
                        for k, v in fit.uncertainties.items()})
        entries["tau_c_identifiable"] = fit.flags["tau_c_identifiable"]
        entries["reduced_chi2"] = dataio.format_float(fit.reduced_chi2)
        converged = fit.converged
        plateau = np.mean(trace.coincidences[np.abs(trace.delay_ns)
                                             >= 0.6 * np.max(np.abs(trace.delay_ns))])
        model = plateau * sf.g2_model(trace.delay_ns, fit.parameters["g0_deconvolved"],
                                      fit.parameters["tau_c_ns"], trace.irf_sigma_ns,
                                      trace.bin_width_ns, fit.parameters["norm"])
        dataio.write_table(out / "fit_residuals.csv",
                           [trace.delay_ns, trace.coincidences, model,
                            trace.coincidences - model],
                           ["delay_ns", "coincidences", "model", "residual"])
    elif args.what == "lifetime":
        cols, _ = dataio.read_columns(args.data[0], ("time_ns", "counts"))
        trace = sf.DecayTrace(time_ns=cols["time_ns"], counts=cols["counts"])
        fit = sf.fit_lifetime(trace)
        entries = {k: dataio.format_float(v) for k, v in fit.parameters.items()}
        entries.update({f"{k}_err": dataio.format_float(v)
                        for k, v in fit.uncertainties.items()})
        entries["degenerate"] = fit.flags["degenerate"]
        entries["reduced_chi2_biexp"] = dataio.format_float(fit.flags["chi2_biexp"])
        entries["reduced_chi2_single"] = dataio.format_float(fit.flags["chi2_single"])
        converged = fit.converged
        t0 = trace.time_ns - trace.time_ns[0]
        model = (fit.parameters["A1"] * np.exp(-t0 / fit.parameters["tau1_ns"])
                 + fit.parameters["A2"] * np.exp(-t0 / fit.parameters["tau2_ns"]))
        dataio.write_table(out / "fit_residuals.csv",
                           [trace.time_ns, trace.counts, model, trace.counts - model],
                           ["time_ns", "counts", "model", "residual"])
    else:  # pragma: no cover - argparse restricts choices
        return EXIT_INPUT

    dataio.write_report(out / "fit_report.txt", f"dotdiode fit report: {args.what}",
                        [("run", header), ("results", entries)])
    return EXIT_OK if converged else EXIT_NONCONVERGED


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dotdiode",
        description="gated quantum-dot diode simulator and spectroscopy toolkit")
    parser.add_argument("--version", action="version", version=f"dotdiode {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--device", default=None,
                        help="device config JSON (default: bundled reference diode)")
    common.add_argument("--out", default="dotdiode_out", help="output directory")

    mesh = argparse.ArgumentParser(add_help=False)
    mesh.add_argument("--max-spacing", type=float, default=2.0, dest="max_spacing")
    mesh.add_argument("--fine-spacing", type=float, default=0.125, dest="fine_spacing")
    mesh.add_argument("--refine-width", type=float, default=10.0, dest="refine_width")
    mesh.add_argument("--statistics", choices=["fermi", "boltzmann"], default="fermi")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bandedges", parents=[common, mesh],
                       help="band diagrams at a list of gate voltages")
    p.add_argument("--bias", type=float, action="append", default=[],
                   help="gate voltage in volts (repeatable)")
    p.set_defaults(func=cmd_bandedges)

    p = sub.add_parser("iv", parents=[common, mesh], help="drift-diffusion IV sweep")
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
    p.add_argument("what", choices=["peaks", "fss", "power", "g2", "lifetime"])
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
    except (SchemaError, MeshOptionError, dataio.DataFormatError, FileNotFoundError,
            LadderRangeError, sf.InsufficientDataError, sf.PartialSeriesError,
            sf.InsufficientDecayError, sf.NormalizationError, ValueError) as exc:
        print(f"dotdiode {args.command}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NonConvergenceError as exc:
        print(f"dotdiode {args.command}: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED


if __name__ == "__main__":
    sys.exit(main())
