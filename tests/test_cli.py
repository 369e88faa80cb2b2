import contextlib
import copy
import importlib.util
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dotdiode
from dotdiode import cli, dataio, electrostatics
from dotdiode.cli import build_parser, main, EXIT_OK, EXIT_INPUT, EXIT_NONCONVERGED
from dotdiode import spectro_fit as sf

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parents[1]


def _make_golden_script():
    spec = importlib.util.spec_from_file_location("make_golden",
                                                  ROOT / "scripts" / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FIT_COMMANDS = _make_golden_script().FIT_COMMANDS


def _g2_reference_path():
    return str(resources.files("dotdiode.data").joinpath("g2_reference.csv"))


def _fresh_interpreter_env():
    """Environment for a subprocess that imports this checkout's dotdiode."""
    src = str(Path(dotdiode.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}


def _read_report(path):
    entries = {}
    for line in Path(path).read_text().splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            entries[key.strip()] = value.strip()
    return entries


def test_stark_report_lists_reference_tuning_ranges(tmp_path):
    rc = main(["stark", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    report = _read_report(tmp_path / "stark_report.txt")
    assert float(report["tuning_range_X0_nm"]) == pytest.approx(2.40, abs=0.01)
    assert float(report["tuning_range_XX_nm"]) == pytest.approx(0.82, abs=0.01)
    assert float(report["tuning_range_Xminus_nm"]) == pytest.approx(1.73, abs=0.01)


def test_stark_single_voltage_rejected(tmp_path):
    rc = main(["stark", "--vmin", "1.0", "--vmax", "1.0", "--out", str(tmp_path)])
    assert rc == EXIT_INPUT


def test_bandedges_writes_per_bias_files(tmp_path):
    rc = main(["bandedges", "--bias", "0", "--bias", "0.5", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["band_p0.000V.csv", "band_p0.500V.csv", "bandedges_summary.csv"]
    cols, meta = dataio.read_table(tmp_path / "band_p0.500V.csv")
    assert "Ec_eV" in cols
    assert "newton_update" in meta and "bias_V" in meta


def test_bandedges_without_bias_is_usage_error(tmp_path):
    assert main(["bandedges", "--out", str(tmp_path)]) == EXIT_INPUT


def test_bandedges_summary_writes_convergence_as_an_integer(tmp_path):
    rc = main(["bandedges", "--bias", "-2.5e-05", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    rows = (tmp_path / "bandedges_summary.csv").read_text().splitlines()
    assert rows[-2] == "bias_V,newton_update,converged"
    assert rows[-1].startswith("-2.500000000000e-05,") and rows[-1].endswith(",1")


def _bias_args(biases):
    return [a for b in biases for a in ("--bias", b)]


@pytest.mark.parametrize("biases, named", [
    (["nan"], "nan"), (["inf"], "inf"), (["6"], "6.0"), (["0", "-6", "7"], "-6.0"),
], ids=["nan", "inf", "beyond-5V", "bad-after-good"])
def test_bandedges_rejects_a_bad_bias_before_writing(tmp_path, capsys, biases, named):
    out = tmp_path / "o"
    assert main(["bandedges", *_bias_args(biases), "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and f"gate voltage {named} V" in err
    assert not out.exists()


def test_bandedges_rejects_biases_sharing_a_file_name(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["bandedges", *_bias_args(["0.5", "0.5001"]), "--out", str(out)])
    assert rc == EXIT_INPUT
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "0.5 V and 0.5001 V" in err and "band_p0.500V.csv" in err
    assert not out.exists()


def test_bandedges_solves_a_repeated_bias_once(tmp_path, monkeypatch):
    real = cli.band_sweep
    yielded = []

    def recording(*args):
        for bias, diagram in real(*args):
            yielded.append(bias)
            yield bias, diagram

    monkeypatch.setattr(cli, "band_sweep", recording)
    assert main(["bandedges", *_bias_args(["0.5", "0", "0.5"]),
                 "--out", str(tmp_path)]) == EXIT_OK
    assert yielded == [0.0, 0.5]
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["band_p0.000V.csv", "band_p0.500V.csv", "bandedges_summary.csv"]
    cols, _ = dataio.read_table(tmp_path / "bandedges_summary.csv")
    assert list(cols["bias_V"]) == [0.5, 0.0, 0.5]
    assert list(cols["converged"]) == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("argv", [
    ["iv", "--vmin"],
    ["iv", "--vmin", "abc"],
    ["iv", "--bogus", "1"],
    ["nope"],
    [],
    # --device belongs to bandedges and iv only
    ["stark", "--device", "/does/not/exist.json"],
    ["synthmap", "--device", "/does/not/exist.json"],
    ["fit", "peaks", "--data", "x.csv", "--device", "/does/not/exist.json"],
], ids=["missing-value", "not-a-number", "unknown-option", "unknown-command", "no-command",
        "stark-device", "synthmap-device", "fit-device"])
def test_usage_error_exits_1_with_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("dotdiode")


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_negative_exponent_values_parse_as_numbers():
    args = build_parser().parse_args(["iv", "--vmin", "-1e-3", "--vmax", "-2.5E-05"])
    assert (args.vmin, args.vmax) == (-1e-3, -2.5e-05)
    args = build_parser().parse_args(["bandedges", "--bias", "-2.5e-05", "--bias", "-.5"])
    assert args.bias == [-2.5e-05, -0.5]


def test_bandedges_bad_device_schema(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"layers": [{"material": "InP"}]}))
    rc = main(["bandedges", "--device", str(bad), "--bias", "0",
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_INPUT


@pytest.mark.parametrize("layers, named", [
    ([1], "layers[0] must be an object"),
    ([{"material": ["InP"], "thickness_nm": 10.0}], "layers[0]: material must be a string"),
    ([{"material": "InP", "thickness_nm": None}], "layers[0]: thickness_nm must be a finite"),
    ([{"material": "InP", "thickness_nm": 10.0, "donor_cm3": {}}],
     "layers[0]: donor_cm3 must be a finite"),
], ids=["int-layer", "list-material", "null-thickness", "object-doping"])
def test_mistyped_device_file_is_one_line_input_error(tmp_path, capsys, layers, named):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"layers": layers}))
    rc = main(["bandedges", "--device", str(bad), "--bias", "0", "--out", str(tmp_path / "o")])
    assert rc == EXIT_INPUT
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and f"bad.json: {named}" in err


def test_iv_zero_width_range_single_point(tmp_path):
    rc = main(["iv", "--vmin", "0.3", "--vmax", "0.3", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    cols, meta = dataio.read_table(tmp_path / "iv.csv")
    assert cols["bias_V"].size == 1
    assert list(cols) == ["bias_V", "J_Acm2", "I_A", "abs_I_A",
                          "iterations", "converged"]
    assert cols["abs_I_A"][0] == abs(cols["I_A"][0])


@pytest.mark.parametrize("bad", [
    ["--step", "0"],
    ["--vmax", "inf"],
    ["--step", "-0.25"],
    ["--step", "nan"],
    ["--area", "-1"],
    ["--area", "nan"],
    ["--step", "inf"],
    # the point count overflows a float; rejected before any bias is built
    ["--vmin=-1e308", "--vmax", "1e308"],
], ids=["step-zero", "vmax-inf", "step-negative", "step-nan", "area-negative",
        "area-nan", "step-inf", "count-overflow"])
def test_iv_rejects_a_bad_sweep_range_with_one_line(tmp_path, capsys, bad):
    rc = main(["iv", *bad, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == EXIT_INPUT
    assert len(err.splitlines()) == 1 and err.startswith("dotdiode iv: ")
    assert not (tmp_path / "iv.csv").exists()


@pytest.mark.parametrize("argv", [
    ["bandedges"],
    ["bandedges", "--bias", "0.5", "--bias", "0.5001"],
    ["iv", "--vmax", "-2"],
    ["iv", "--area", "0"],
    ["iv", "--step", "1e-9"],
    ["stark", "--vmax", "0.5"],
    ["stark", "--points", "1000000000"],
    ["stark", "--points", "0"],
    ["synthmap", "--nv", "100000", "--nl", "100000"],
    ["synthmap", "--vmin", "-50"],
], ids=["bandedges-no-bias", "bandedges-file-name", "iv-vmax-below-vmin", "iv-area",
        "iv-points", "stark-vmax", "stark-points-cap", "stark-points", "synthmap-cells",
        "synthmap-ladder"])
def test_an_input_error_starts_with_the_command_it_rejected(tmp_path, capsys, argv):
    rc = main(argv + ["--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == EXIT_INPUT
    assert len(err.splitlines()) == 1 and err.startswith(f"dotdiode {argv[0]}: "), err


@pytest.mark.parametrize("argv, named", [
    (["iv", "--step", "1e-9"], "give 3000000001 bias points, above the cap of 2001"),
    (["iv", "--max-spacing", "1e-3", "--fine-spacing", "1e-3"],
     "611 nm stack give 6.11e+05 mesh nodes"),
    (["bandedges", "--bias", "0", "--fine-spacing", "1e-6"], "above the cap of 100000"),
    (["bandedges", "--bias", "0", "--device", "{huge}"], "1e+12 nm stack give 5e+11 mesh"),
    (["stark", "--points", "1000000000"], "--points 1000000000 is above the cap"),
    (["synthmap", "--nv", "100000", "--nl", "100000"], "gives 10000000000 cells, above"),
    # counts below what a sweep or a map needs
    (["stark", "--points", "0"], "--points must be at least 2, not 0"),
    (["stark", "--points", "1"], "--points must be at least 2, not 1"),
    (["synthmap", "--nv", "-3", "--nl", "-3"], "--nv must be at least 1, not -3"),
    (["synthmap", "--nl", "0"], "--nl must be at least 1, not 0"),
    (["synthmap", "--seed", "-1"], "--seed must be at least 0, not -1"),
], ids=["iv-points", "iv-mesh", "bandedges-fine-spacing", "bandedges-huge-layer",
        "stark-points", "synthmap-cells", "stark-no-points", "stark-one-point",
        "synthmap-negative-counts", "synthmap-no-wavelengths", "synthmap-negative-seed"])
def test_an_oversized_input_exits_1_with_one_line_before_allocating(tmp_path, capsys,
                                                                   argv, named):
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"layers": [{"material": "InP", "thickness_nm": 1e12}]}))
    out = tmp_path / "o"
    start = time.perf_counter()
    rc = main([a.format(huge=huge) for a in argv] + ["--out", str(out)])
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert rc == EXIT_INPUT
    assert len(err.splitlines()) == 1 and named in err, err
    assert not out.exists()


def test_a_memory_error_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    def cmd_stark(args):
        raise MemoryError("Unable to allocate 8.00 GiB for an array")

    monkeypatch.setattr(cli, "cmd_stark", cmd_stark)
    assert main(["stark", "--out", str(tmp_path / "o")]) == EXIT_INPUT
    assert capsys.readouterr().err.splitlines() == [
        "dotdiode stark: out of memory: Unable to allocate 8.00 GiB for an array"]


@pytest.mark.parametrize("argv, named", [
    (["stark", "--di", "nan"], "intrinsic thickness"),
    (["stark", "--di", "inf"], "intrinsic thickness"),
    (["synthmap", "--di", "nan"], "intrinsic thickness"),
    (["synthmap", "--linewidth", "nan"], "linewidth"),
    (["synthmap", "--linewidth", "-5"], "linewidth"),
    (["iv", "--generation", "nan"], "generation"),
    (["iv", "--generation", "inf"], "generation"),
    (["iv", "--generation", "-1e22"], "generation"),
    (["bandedges", "--bias", "0", "--max-spacing", "nan"], "spacings"),
    (["bandedges", "--bias", "0", "--refine-width", "inf"], "refine_width"),
    (["stark", "--vmax", "inf"], "vmax must be finite, not inf"),
    (["stark", "--vmin", "nan"], "vmin must be finite, not nan"),
    (["stark", "--vmin", "-inf"], "vmin must be finite, not -inf"),
    (["synthmap", "--lmin", "nan"], "lmin must be finite, not nan"),
    (["synthmap", "--lmax", "inf"], "lmax must be finite, not inf"),
    (["synthmap", "--vmax", "inf"], "vmax must be finite, not inf"),
    (["fit", "peaks", "--data", str(GOLDEN / "fit_inputs" / "peaks3.csv"),
      "--snr-gate", "nan"], "snr_gate must be finite, not nan"),
    # a window or a map whose lines leave the float range
    (["stark", "--points", "2", "--vmin", "0", "--vmax", "1e308"],
     "X0 wavelength over 0.0 to 1e+308 V at d_i = 240.0 nm"),
    (["stark", "--vmin", "-1e200", "--vmax", "1e200"], "not -0.0 nm"),
    (["synthmap", "--nv", "3", "--nl", "5", "--linewidth", "1e300"],
     "line at gate voltage 0.8 V: centre 1537.70575686612 nm and FWHM 1.90712931"),
    (["synthmap", "--nv", "3", "--nl", "5", "--di", "1e-300"], "centre -0.0 nm"),
    (["fit", "power", "--data", str(GOLDEN / "fit_inputs" / "power.csv"),
      "--saturation-cutoff", "nan"], "saturation_cutoff must be finite and positive, not nan"),
    (["fit", "power", "--data", str(GOLDEN / "fit_inputs" / "power.csv"),
      "--saturation-cutoff", "-1"], "saturation_cutoff must be finite and positive, not -1.0"),
], ids=["stark-di-nan", "stark-di-inf", "synthmap-di-nan", "synthmap-linewidth-nan",
        "synthmap-linewidth-negative", "iv-generation-nan", "iv-generation-inf",
        "iv-generation-negative", "bandedges-spacing-nan", "bandedges-refine-inf",
        "stark-vmax-inf", "stark-vmin-nan", "stark-vmin-minus-inf", "synthmap-lmin-nan",
        "synthmap-lmax-inf", "synthmap-vmax-inf", "fit-peaks-snr-gate-nan",
        "stark-wavelength-nan", "stark-wavelength-negative", "synthmap-linewidth-huge",
        "synthmap-di-tiny", "fit-power-cutoff-nan", "fit-power-cutoff-negative"])
def test_a_bad_number_is_rejected_where_it_enters(tmp_path, capsys, argv, named):
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and named in err and "must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("vmin, named", [("1e308", "1e+308"), ("6", "6.0"),
                                          ("1e300", "1e+300")],
                         ids=["overflowing-ladder", "beyond-5V", "huge-ladder"])
def test_iv_rejects_a_bad_bias_before_writing(tmp_path, capsys, vmin, named):
    out = tmp_path / "o"
    assert main(["iv", "--vmin", vmin, "--vmax", vmin, "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and f"gate voltage {named} V" in err
    assert not out.exists()


def test_iv_csv_records_cycles_and_convergence_but_no_seed(tmp_path):
    rc = main(["iv", "--vmin", "0.25", "--vmax", "0.5", "--out", str(tmp_path / "iv")])
    assert rc == EXIT_OK
    cols, meta = dataio.read_table(tmp_path / "iv" / "iv.csv")
    assert list(cols["converged"]) == [1.0, 1.0]
    assert np.all(cols["iterations"] >= 1)
    assert np.all(cols["iterations"] == np.round(cols["iterations"]))
    assert "seed" not in meta
    rc = main(["synthmap", "--seed", "7", "--nv", "9", "--nl", "101",
               "--out", str(tmp_path / "map")])
    assert rc == EXIT_OK
    _, meta = dataio.read_table(tmp_path / "map" / "emission_map.csv")
    assert meta["seed"] == "7"


def test_iv_generation_does_not_reduce_current(tmp_path):
    rc0 = main(["iv", "--vmin", "0.6", "--vmax", "0.6", "--out", str(tmp_path / "dark")])
    rc1 = main(["iv", "--vmin", "0.6", "--vmax", "0.6", "--generation", "1e22",
                "--out", str(tmp_path / "lit")])
    assert rc0 == rc1 == EXIT_OK
    dark, _ = dataio.read_table(tmp_path / "dark" / "iv.csv")
    lit, _ = dataio.read_table(tmp_path / "lit" / "iv.csv")
    assert lit["abs_I_A"][0] >= dark["abs_I_A"][0] * (1.0 - 1e-6)


def test_fit_g2_on_the_bundled_trace(tmp_path):
    rc = main(["fit", "g2", "--data", _g2_reference_path(), "--out", str(tmp_path)])
    assert rc == EXIT_OK
    report = _read_report(tmp_path / "fit_report.txt")
    assert abs(float(report["g0_deconvolved"]) - 0.04) <= 0.02
    assert abs(float(report["g0_raw"]) - 0.18) <= 0.03
    assert (tmp_path / "fit_residuals.csv").exists()


def test_fit_fss_trion_series_consistent_with_zero(tmp_path):
    series = sf.synth_polarization_series(1535.4, 0.0, np.linspace(0, 330, 12), seed=6)
    paths = []
    for k, spec in enumerate(series):
        path = tmp_path / f"angle_{k:02d}.csv"
        dataio.write_table(path, [spec.wavelength_nm, spec.counts],
                           ["wavelength_nm", "counts"],
                           meta={"polarizer_angle_deg": spec.polarizer_angle_deg})
        paths.append(str(path))
    args = ["fit", "fss", "--out", str(tmp_path / "out")]
    for p in paths:
        args += ["--data", p]
    rc = main(args)
    assert rc == EXIT_OK
    report = _read_report(tmp_path / "out" / "fit_report.txt")
    assert report["consistent_with_zero"] == "True"


def test_fit_peaks_command(tmp_path):
    spec = sf.synth_spectrum(np.linspace(1529.5, 1531.1, 801),
                             [(1530.3, 0.05, 1000.0)], background=10.0)
    data = tmp_path / "spec.csv"
    dataio.write_table(data, [spec.wavelength_nm, spec.counts],
                       ["wavelength_nm", "counts"])
    rc = main(["fit", "peaks", "--data", str(data), "--out", str(tmp_path / "o")])
    assert rc == EXIT_OK
    report = _read_report(tmp_path / "o" / "fit_report.txt")
    assert float(report["peak0_center_nm"]) == pytest.approx(1530.3, abs=1e-6)


def test_fit_lifetime_command(tmp_path):
    trace = sf.synth_decay_trace([(0.4, 0.3), (2.2, 0.7)], seed=10)
    data = tmp_path / "decay.csv"
    dataio.write_table(data, [trace.time_ns, trace.counts], ["time_ns", "counts"])
    rc = main(["fit", "lifetime", "--data", str(data), "--out", str(tmp_path / "o")])
    assert rc == EXIT_OK
    report = _read_report(tmp_path / "o" / "fit_report.txt")
    assert float(report["tau2_ns"]) == pytest.approx(2.2, abs=0.1)


def test_fit_lifetime_converges_on_a_single_exponential(tmp_path):
    """The biexponential's second component carries no area on one clean
    exponential; that is a converged fit, not an exhausted budget."""
    trace = sf.synth_decay_trace([(2.2, 1.0)], peak_counts=1000.0, seed=4002)
    data = tmp_path / "decay.csv"
    dataio.write_table(data, [trace.time_ns, trace.counts], ["time_ns", "counts"])
    rc = main(["fit", "lifetime", "--data", str(data), "--out", str(tmp_path / "o")])
    assert rc == EXIT_OK
    report = _read_report(tmp_path / "o" / "fit_report.txt")
    assert float(report["principal_tau_ns"]) == pytest.approx(2.2, abs=0.1)


def test_fit_power_command(tmp_path):
    p, i = sf.synth_power_series(0.88, np.geomspace(5, 360, 12))
    data = tmp_path / "power.csv"
    dataio.write_table(data, [p, i], ["power_uW", "intensity"])
    rc = main(["fit", "power", "--data", str(data), "--out", str(tmp_path / "o")])
    assert rc == EXIT_OK
    report = _read_report(tmp_path / "o" / "fit_report.txt")
    assert float(report["slope"]) == pytest.approx(0.88, abs=1e-6)


def test_fit_peaks_residual_uses_the_fitted_shape(tmp_path):
    wl = np.linspace(1529.5, 1531.1, 801)
    counts = 10.0 + sf.gaussian_profile(wl, 1530.3, 0.05, 1000.0)
    data = tmp_path / "spec.csv"
    dataio.write_table(data, [wl, counts], ["wavelength_nm", "counts"])
    rc = main(["fit", "peaks", "--shape", "gaussian", "--data", str(data),
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_OK
    cols, _ = dataio.read_table(tmp_path / "o" / "fit_residuals.csv")
    assert np.max(np.abs(cols["residual"])) < 1e-6


@pytest.mark.parametrize("what, names, missing", [
    ("power", ["power_uW", "counts"], "intensity"),
    ("g2", ["delay_ns", "counts"], "coincidences"),
    ("lifetime", ["t_ns", "counts"], "time_ns"),
])
def test_fit_missing_column_is_input_error(tmp_path, capsys, what, names, missing):
    data = tmp_path / "data.csv"
    x = np.linspace(1.0, 10.0, 40)
    dataio.write_table(data, [x, x], names)
    rc = main(["fit", what, "--data", str(data), "--out", str(tmp_path / "o")])
    assert rc == EXIT_INPUT
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert missing in err


def _with(values, k, value):
    values = np.array(values, dtype=float)
    values[k] = value
    return values


_POWERS = np.geomspace(0.1, 10.0, 12)
_DECAY = sf.synth_decay_trace([(0.4, 0.3), (2.2, 0.7)], seed=10)
_G2 = sf.synth_g2_trace(0.1, 2.0, 0.3, 0.256, seed=4)
_G2_COLUMNS = {"delay_ns": _G2.delay_ns, "coincidences": _G2.coincidences}
_G2_META = {"bin_width_ns": _G2.bin_width_ns, "irf_sigma_ns": _G2.irf_sigma_ns}
_SPECTRUM = sf.synth_spectrum(np.linspace(1530.0, 1540.0, 201), [(1535.0, 0.1, 1000.0)],
                              background=10.0, seed=3)
_SPECTRUM_COLUMNS = {"wavelength_nm": _SPECTRUM.wavelength_nm, "counts": _SPECTRUM.counts}
_GOLDEN_DECAY, _ = dataio.read_table(GOLDEN / "fit_inputs" / "decay.csv")


@pytest.mark.parametrize("what, columns, meta, field", [
    pytest.param("power", {"power_uW": [], "intensity": []}, {}, "power_uW",
                 id="power-header-only"),
    pytest.param("lifetime", {"time_ns": [], "counts": []}, {}, "time_ns",
                 id="lifetime-header-only"),
    pytest.param("lifetime", {"time_ns": _DECAY.time_ns,
                              "counts": _with(_DECAY.counts, 5, np.nan)}, {}, "counts",
                 id="lifetime-nan-count"),
    pytest.param("power", {"power_uW": _POWERS, "intensity": _with(_POWERS, 3, np.inf)},
                 {}, "intensity", id="power-inf-intensity"),
    pytest.param("power", {"power_uW": np.full(12, 2.0), "intensity": _POWERS}, {},
                 "power_uW", id="power-equal-powers"),
    pytest.param("g2", {**_G2_COLUMNS, "coincidences": _with(_G2.coincidences, 7, np.nan)},
                 _G2_META, "coincidences", id="g2-nan-count"),
    pytest.param("g2", _G2_COLUMNS, {**_G2_META, "bin_width_ns": "nan"}, "bin_width_ns",
                 id="g2-nan-bin-width"),
    pytest.param("g2", _G2_COLUMNS, {**_G2_META, "irf_sigma_ns": "inf"}, "irf_sigma_ns",
                 id="g2-inf-irf-sigma"),
    pytest.param("g2", _G2_COLUMNS, {**_G2_META, "bin_width_ns": "abc"},
                 "data.csv: metadata bin_width_ns", id="g2-text-bin-width"),
    pytest.param("peaks", _SPECTRUM_COLUMNS, {"gate_V": "abc"}, "data.csv: metadata gate_V",
                 id="spectrum-text-gate"),
    pytest.param("peaks", _SPECTRUM_COLUMNS, {"power_uW": "abc"},
                 "data.csv: metadata power_uW", id="spectrum-text-power"),
    # start lifetimes outside the 1e-4 to 1e4 ns range that fit_lifetime accepts
    pytest.param("lifetime", {"time_ns": _GOLDEN_DECAY["time_ns"] * 1e10,
                              "counts": _GOLDEN_DECAY["counts"]}, {}, "time_ns",
                 id="lifetime-time-scaled-1e10"),
    pytest.param("lifetime", {"time_ns": _GOLDEN_DECAY["time_ns"] * 1e-100,
                              "counts": _GOLDEN_DECAY["counts"]}, {}, "time_ns",
                 id="lifetime-time-scaled-1e-100"),
    pytest.param("lifetime", {"time_ns": _GOLDEN_DECAY["time_ns"] * 1e-300,
                              "counts": _GOLDEN_DECAY["counts"]}, {}, "time_ns",
                 id="lifetime-time-scaled-1e-300"),
])
def test_bad_fit_input_is_one_line_input_error(tmp_path, capsys, what, columns, meta, field):
    """Empty, non-finite or degenerate fit inputs stop where they enter the
    fitter, with one line naming the field."""
    data = tmp_path / "data.csv"
    dataio.write_table(data, list(columns.values()), list(columns), meta=meta)
    rc = main(["fit", what, "--data", str(data), "--out", str(tmp_path / "o")])
    assert rc == EXIT_INPUT
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert field in err


_BUNDLED = {name: json.loads(resources.files("dotdiode.data").joinpath(name).read_text())
            for name in ("reference_lines.json", "charge_ladder.json", "device_fig1a.json")}


def _edited(name, edit):
    """The bundled data file `name` as JSON text, after `edit` changed it."""
    doc = copy.deepcopy(_BUNDLED[name])
    edit(doc)
    return json.dumps(doc)


@pytest.mark.parametrize("argv, text, named", [
    pytest.param(["fit", "peaks", "--data", "{dir}"], None, "", id="data-directory"),
    pytest.param(["bandedges", "--bias", "0", "--device", "{dir}"], None, "",
                 id="device-directory"),
    pytest.param(["stark", "--out", "{file}/out"], None, "", id="out-under-a-file"),
    pytest.param(["stark", "--lines", "{json}"],
                 _edited("reference_lines.json", lambda doc: doc["lines"][1].pop("E0_eV")),
                 "bad.json: lines[1]: missing field 'E0_eV'", id="line-without-E0"),
    pytest.param(["synthmap", "--lines", "{json}"],
                 _edited("reference_lines.json", lambda doc: doc["lines"][0].update(E0_eV="abc")),
                 "bad.json: lines[0]: E0_eV must be a finite number", id="line-text-E0"),
    pytest.param(["synthmap", "--ladder", "{json}"],
                 _edited("charge_ladder.json", lambda doc: doc.pop("occupancy")),
                 "bad.json: missing field 'occupancy'", id="ladder-without-occupancy"),
    pytest.param(["stark", "--lines", "{json}"], json.dumps(_BUNDLED["reference_lines.json"]
                                                           ["lines"]),
                 "bad.json must be an object", id="lines-top-level-list"),
    pytest.param(["bandedges", "--bias", "0", "--device", "{json}"],
                 json.dumps(_BUNDLED["device_fig1a.json"])[:200],
                 "bad.json: invalid JSON", id="device-truncated"),
    pytest.param(["bandedges", "--bias", "0", "--device", "{json}"],
                 _edited("device_fig1a.json", lambda doc: doc["layers"].clear()),
                 "bad.json: 'layers' list must not be empty", id="device-without-layers"),
    pytest.param(["bandedges", "--bias", "0", "--device", "{json}"],
                 _edited("device_fig1a.json",
                         lambda doc: doc["layers"][0].update(thickness_nm=-1.0)),
                 "bad.json: layer 0: layer thickness must be positive",
                 id="device-negative-thickness"),
    pytest.param(["bandedges", "--bias", "0", "--device", "{json}"],
                 _edited("device_fig1a.json",
                         lambda doc: doc["layers"][2].update(material="Kryptonite")),
                 "bad.json: layer 2: unknown material 'Kryptonite'",
                 id="device-unknown-material"),
])
def test_unreadable_path_is_one_line_input_error(tmp_path, capsys, argv, text, named):
    """An input path that cannot be read, or a JSON configuration with a
    missing or mistyped field, is one line naming the file and the field."""
    (tmp_path / "file").write_text("")
    if text is not None:
        (tmp_path / "bad.json").write_text(text)
    argv = [a.format(dir=tmp_path, file=tmp_path / "file", json=tmp_path / "bad.json")
            for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and named in err


def _json_paths(doc, prefix=()):
    """The key path of every value inside a JSON document."""
    children = (doc.items() if isinstance(doc, dict)
                else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in children:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


@st.composite
def _malformed_config(draw):
    """A bundled configuration file with one key dropped or one value
    replaced by a value of another (or the same) JSON type."""
    name = draw(st.sampled_from(sorted(_BUNDLED)))
    path = draw(st.sampled_from(list(_json_paths(_BUNDLED[name]))))
    replacement = draw(st.sampled_from(["abc", None, True, [], {}, 1.5, ["X0"]]))
    drop = draw(st.booleans())

    def edit(doc):
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if drop and isinstance(parent, dict):
            del parent[path[-1]]
        else:
            parent[path[-1]] = replacement

    return name, _edited(name, edit)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_malformed_config())
def test_malformed_json_configuration_exits_0_or_1(tmp_path_factory, case):
    """stark and synthmap on a malformed lines or ladder file, and bandedges
    on a malformed device file, never raise (RuntimeWarnings are errors in
    this suite) and say at most one line. A device that parses may still
    fail to converge (exit 2)."""
    name, text = case
    path = tmp_path_factory.mktemp("config") / name
    path.write_text(text)
    commands = {"reference_lines.json": [["synthmap", "--nv", "5", "--nl", "51", "--lines"],
                                         ["stark", "--points", "5", "--lines"]],
                "charge_ladder.json": [["synthmap", "--nv", "5", "--nl", "51", "--ladder"]],
                "device_fig1a.json": [["bandedges", "--bias", "0", "--device"]]}[name]
    for argv in commands:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main([*argv, str(path), "--out", str(path.parent / "o")])
        assert rc in (EXIT_OK, EXIT_INPUT, EXIT_NONCONVERGED if "--device" in argv else EXIT_OK)
        assert len(err.getvalue().strip().splitlines()) <= 1, err.getvalue()


_FIT_COLUMNS = {"peaks": ("wavelength_nm", "counts"), "fss": ("wavelength_nm", "counts"),
                "power": ("power_uW", "intensity"), "g2": ("delay_ns", "coincidences"),
                "lifetime": ("time_ns", "counts")}
_FIT_META = ("bin_width_ns", "irf_sigma_ns", "power_uW", "gate_V")
_ODD_FLOATS = st.sampled_from([0.0, -1.0, 1e300, -1e300, 1e-300, np.nan, np.inf, -np.inf])
_META_TEXT = st.one_of(st.sampled_from(["", "abc", "1,5", "nan", "-inf", "0", "-1"]),
                       st.floats(0.0, 5.0).map(dataio.format_float))


@st.composite
def _fit_column(draw, n, grid):
    """n values, mostly an increasing grid (`grid`) or a peak, dip or decay
    on a background, else any values; then maybe one value replaced by an
    odd float."""
    kind = draw(st.sampled_from(["grid" if grid else "shape"] * 3 + ["any"]))
    k = np.arange(n, dtype=float)
    if kind == "grid":
        values = draw(st.floats(0.0, 50.0)) + draw(st.floats(0.01, 10.0)) * k
    elif kind == "shape":
        width = draw(st.floats(0.5, 10.0))
        center = draw(st.one_of(st.just(0), st.integers(0, max(n - 1, 0))))
        values = np.round(draw(st.floats(0.0, 100.0)) + draw(st.floats(-100.0, 5000.0))
                          * np.exp(-np.abs(k - center) / width))
    else:
        values = np.array(draw(st.lists(st.floats(-1e3, 1e4), min_size=n, max_size=n)))
    if n and draw(st.booleans()):
        values[draw(st.integers(0, n - 1))] = draw(_ODD_FLOATS)
    return values


@st.composite
def _fit_input(draw):
    """A fit command and the text of its CSV: the expected columns, maybe one
    missing or one extra, and metadata that may not be numeric."""
    what = draw(st.sampled_from(sorted(_FIT_COLUMNS)))
    names = list(_FIT_COLUMNS[what])
    shape = draw(st.sampled_from(["expected", "expected", "missing", "extra"]))
    if shape == "missing":
        names.pop(draw(st.integers(0, 1)))
    elif shape == "extra":
        names.append("extra")
    n = draw(st.one_of(st.integers(0, 3), st.integers(8, 40)))
    columns = [draw(_fit_column(n, grid=k == 0)) for k in range(len(names))]
    meta = draw(st.dictionaries(st.sampled_from(_FIT_META), _META_TEXT, max_size=3))
    lines = [f"# {k} = {v}" for k, v in meta.items()] + [",".join(names)]
    lines += [",".join(dataio.format_float(c[k]) for c in columns) for k in range(n)]
    return what, "\n".join(lines) + "\n", draw(st.integers(1, 12))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_fit_input())
def test_fit_on_malformed_csv_exits_0_1_or_2(tmp_path_factory, case):
    """Random or malformed input never raises (RuntimeWarnings are errors in
    this suite); an input error is one line on stderr."""
    what, text, copies = case
    tmp = tmp_path_factory.mktemp("fit")
    argv = ["fit", what, "--out", str(tmp / "o")]
    for k in range(copies if what == "fss" else 1):     # fss: one file per angle
        path = tmp / f"data{k}.csv"
        path.write_text(f"# polarizer_angle_deg = {30 * k}\n{text}")
        argv += ["--data", str(path)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (EXIT_OK, EXIT_INPUT, EXIT_NONCONVERGED)
    if rc == EXIT_INPUT:
        assert len(err.getvalue().strip().splitlines()) == 1, err.getvalue()


@pytest.mark.parametrize("temperature", [0, "300", 1000])
def test_bad_device_temperature_is_input_error(tmp_path, capsys, temperature):
    doc = json.loads(resources.files("dotdiode.data")
                     .joinpath("device_fig1a.json").read_text())
    doc["temperature_K"] = temperature
    device = tmp_path / "cold.json"
    device.write_text(json.dumps(doc))
    rc = main(["bandedges", "--device", str(device), "--bias", "0",
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_INPUT
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "cold.json: " in err and "temperature" in err
    if temperature == 1000:     # checked once, on the stack, not on its first layer
        assert "cold.json: device temperature 1000.0 K outside (0, 400.0] K" in err
        assert "layer 0" not in err


@pytest.mark.parametrize("temperature", [10, 4, 20])
def test_iv_breakdown_exits_2_with_one_line_and_writes_the_csv(tmp_path, capsys,
                                                                temperature):
    doc = json.loads(resources.files("dotdiode.data")
                     .joinpath("device_fig1a.json").read_text())
    doc["temperature_K"] = temperature
    device = tmp_path / "cold.json"
    device.write_text(json.dumps(doc))
    rc = main(["iv", "--device", str(device), "--vmin", "0", "--vmax", "0.5", "--step", "0.5",
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_NONCONVERGED
    assert capsys.readouterr().err.splitlines() == [
        f"dotdiode iv: no converged solution at [0.0, 0.5] V (T = {float(temperature)} K)"]
    cols, meta = dataio.read_table(tmp_path / "o" / "iv.csv")
    assert list(cols["converged"]) == [0.0, 0.0] and np.all(np.isnan(cols["J_Acm2"]))
    assert meta["all_converged"] == "False"


def test_exit_2_lines_name_the_command(tmp_path, capsys, monkeypatch):
    """Like an input error, each non-convergence line starts with
    `dotdiode <command>: `, and the outputs are still written."""
    monkeypatch.setattr(electrostatics, "NEWTON_MAX_ITERATIONS", 1)
    assert main(["bandedges", "--bias", "0", "--bias", "0.5",
                 "--out", str(tmp_path / "b")]) == EXIT_NONCONVERGED
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("dotdiode bandedges: ") for line in err)
    assert (tmp_path / "b" / "bandedges_summary.csv").exists()

    def unconverged_power_fit(args):
        return {}, {"power_uW": np.ones(2), "intensity": np.ones(2)}, False

    monkeypatch.setitem(cli._FITTERS, "power", unconverged_power_fit)
    assert main(["fit", "power", "--data", "unused.csv",
                 "--out", str(tmp_path / "f")]) == EXIT_NONCONVERGED
    assert capsys.readouterr().err.splitlines() == ["dotdiode fit: the power fit did not converge"]
    assert (tmp_path / "f" / "fit_report.txt").exists()


@pytest.mark.parametrize("field", ["thickness_nm", "donor_cm3"])
def test_nonfinite_layer_value_is_input_error(tmp_path, capsys, field):
    doc = json.loads(resources.files("dotdiode.data")
                     .joinpath("device_fig1a.json").read_text())
    doc["layers"][0][field] = float("nan")
    device = tmp_path / "device.json"
    device.write_text(json.dumps(doc))
    rc = main(["bandedges", "--device", str(device), "--bias", "0",
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_INPUT
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert field in err


@pytest.mark.parametrize("column", ["wavelength_nm", "counts"])
def test_nonfinite_spectrum_is_input_error(tmp_path, capsys, column):
    spec = sf.synth_spectrum(np.linspace(1530.0, 1540.0, 400),
                             [(1535.0, 0.2, 500.0)], background=20.0, seed=3)
    cols = {"wavelength_nm": spec.wavelength_nm, "counts": spec.counts}
    cols[column] = cols[column].copy()
    cols[column][-1] = np.nan
    data = tmp_path / "spectrum.csv"
    dataio.write_table(data, list(cols.values()), list(cols))
    rc = main(["fit", "peaks", "--data", str(data), "--out", str(tmp_path / "o")])
    assert rc == EXIT_INPUT
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert column in err


def test_write_table_matches_per_value_format_float(tmp_path):
    """Float columns and float metadata are format_float per value; int and
    bool columns are written as integers. Zeros, non-finite, subnormal and
    very large values raise no warning."""
    values = np.array([0.0, -0.0, 1e-300, -2.5e17, np.nan, np.inf, -np.inf, 1.0 / 3.0,
                       5e-324, -2.2e-310, 1.5e305, -1e300])
    columns = [values, np.arange(values.size) - 3, values > 0]
    path = tmp_path / "t.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dataio.write_table(path, columns, ["x", "k", "flag"], meta={"a": 1, "b": 1.0 / 3.0})
    rows = [f"{dataio.format_float(x)},{k},{int(flag)}" for x, k, flag in zip(*columns)]
    assert path.read_text() == "\n".join(
        ["# a = 1", f"# b = {dataio.format_float(1.0 / 3.0)}", "x,k,flag", *rows]) + "\n"


def _assert_written_as(tmp_path, columns, expected_rows):
    """write_table's body for `columns` is exactly `expected_rows`."""
    path = tmp_path / "t.csv"
    names = [f"c{j}" for j in range(len(columns))]
    dataio.write_table(path, columns, names)
    lines = path.read_text().split("\n")
    assert lines[0] == ",".join(names) and lines[-1] == ""
    assert len(lines) == len(expected_rows) + 2
    assert [(k, row, want) for k, (row, want) in enumerate(zip(lines[1:], expected_rows))
            if row != want][:5] == []


@settings(max_examples=200, deadline=None)
@given(n_cols=st.sampled_from([1, 2, 7]), data=st.data())
def test_float_columns_are_byte_identical_to_percent_format(tmp_path_factory, n_cols, data):
    n_rows = data.draw(st.integers(0, 40))
    values = data.draw(st.lists(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        min_size=n_rows * n_cols, max_size=n_rows * n_cols))
    x = np.array(values, dtype=float).reshape(n_rows, n_cols)
    _assert_written_as(tmp_path_factory.mktemp("f"), list(x.T),
                       [",".join("%.12e" % v for v in row) for row in x.tolist()])


def _float_sweep(rng):
    """Over a million floats: random mantissas in every decade from 1e-308 to
    1e308; powers of ten, the 13-digit values next to them and their
    neighbours; values a few ulp from a 13-digit rounding tie; whole numbers
    around 1e12, 1e13 and 2**53; and +-0."""
    decades = np.arange(-308, 308)
    mantissa = rng.uniform(1.0, 10.0, (decades.size, 1500))
    spread = (mantissa * 10.0 ** decades[:, None].astype(float)).ravel()
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    digits = rng.integers(10**12, 10**13, 20000)
    exponents = rng.integers(-300, 300, 20000)
    ties = np.array([float(f"{d}5e{e - 13}") for d, e in zip(digits.tolist(),
                                                           exponents.tolist())])
    grid = np.array([float(f"{m}e{e - 13}") for m in (10**13 - 1, 10**12 + 1)
                     for e in range(-295, 309)])
    whole = np.concatenate([c + np.arange(-2000, 2000, 0.5) for c in (1e12, 1e13, 2.0**53)])
    below = above = [np.concatenate([powers, grid, ties])]
    for _ in range(3):
        below = below + [np.nextafter(below[-1], 0.0)]
        above = above + [np.nextafter(above[-1], np.inf)]
    values = np.concatenate([spread, *below, *above[1:], whole, [0.0, -0.0]])
    return np.concatenate([values, -values[::7]])


def test_float_sweep_is_byte_identical_to_percent_format(tmp_path):
    values = _float_sweep(np.random.default_rng(2024))
    assert values.size >= 10**6
    values = values[:values.size // 4 * 4].reshape(-1, 4)
    _assert_written_as(tmp_path, list(values.T),
                       ["%.12e,%.12e,%.12e,%.12e" % row for row in map(tuple, values.tolist())])


def _around_a_block(n_columns):
    """Row counts 0, 1 and on either side of write_table's first block
    boundary for a table of `n_columns` columns."""
    rows = max(1, dataio.CHUNK_VALUES // n_columns)
    return [0, 1, rows - 1, rows, rows + 1]


@pytest.mark.parametrize("n_rows", _around_a_block(5),
                         ids=["0", "1", "block-1", "block", "block+1"])
def test_integer_columns_are_exact_at_any_width(tmp_path, n_rows):
    """int64 and uint64 extremes, zero, negatives and bools, with a float
    column beside them, at row counts on either side of a block boundary."""
    k = np.resize(np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1, -10,
                            9999, -10000, 2**53 + 1], dtype=np.int64), n_rows)
    u = np.resize(np.array([np.iinfo(np.uint64).max, 2**63, 0, 10**19], dtype=np.uint64),
                  n_rows)
    flag = np.arange(n_rows) % 3 == 0
    x = np.linspace(-1.0, 1.0, n_rows)
    _assert_written_as(tmp_path, [k, x, u, flag, k.astype(np.int8)],
                       [f"{a},{b:.12e},{c},{int(d)},{e}" for a, b, c, d, e in
                        zip(k.tolist(), x.tolist(), u.tolist(), flag.tolist(),
                            k.astype(np.int8).tolist())])


def test_write_table_memory_is_bounded_by_its_row_blocks(tmp_path):
    """Peak writer memory does not grow with the row count: a 4001-row map
    of 601 integer columns and one float column peaks within 1.2x of a
    1024-row one."""
    rng = np.random.default_rng(5)
    peaks = []
    for n_rows in (1024, 4001):
        counts = rng.poisson(20.0, (n_rows, 601))
        columns = [np.linspace(1528.0, 1540.0, n_rows), *counts.T]
        names = [f"c{j}" for j in range(len(columns))]
        tracemalloc.start()
        try:
            dataio.write_table(tmp_path / f"map{n_rows}.csv", columns, names)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0]


def test_seven_float_columns_spanning_two_blocks_match_percent_format(tmp_path):
    """A band-diagram-shaped table of 7 float columns, one row past its
    block and well into the second, is written as "%.12e" writes each value."""
    rows = dataio.CHUNK_VALUES // 7
    assert 1628 <= rows        # a band diagram goes out in one block
    rng = np.random.default_rng(7)
    shape = (rows + 1 + rows // 3, 7)
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-30, 30, shape)
    _assert_written_as(tmp_path, list(values.T),
                       [",".join("%.12e" % v for v in row) for row in values.tolist()])


_ROUND_TRIP_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, np.inf, -np.inf, np.nan]))


@settings(max_examples=25, deadline=None)
@given(n_rows=st.sampled_from(_around_a_block(3)),
       data=st.data())
def test_write_table_round_trips_through_read_table(tmp_path_factory, n_rows, data):
    """Float text is format_float's, bit for bit; int64 and bool columns come
    back exact, at row counts on either side of a block boundary. Each column
    repeats up to 64 drawn values to its length."""
    def column(elements, dtype):
        drawn = data.draw(st.lists(elements, min_size=min(n_rows, 1), max_size=64))
        return np.resize(np.array(drawn, dtype=dtype), n_rows)

    x = column(_ROUND_TRIP_FLOATS, float)
    k = column(st.integers(-2**53, 2**53), np.int64)
    flag = column(st.booleans(), bool)
    path = tmp_path_factory.mktemp("rt") / "t.csv"
    dataio.write_table(path, [x, k, flag], ["x", "k", "flag"])
    lines = path.read_text().splitlines()
    assert lines[0] == "x,k,flag" and len(lines) == n_rows + 1
    assert [line.split(",") for line in lines[1:]] == \
           [[dataio.format_float(a), str(b), str(int(c))] for a, b, c in zip(x, k, flag)]
    cols, _ = dataio.read_table(path)
    expected = np.array([float(dataio.format_float(a)) for a in x], dtype=float)
    assert cols["x"].view(np.int64).tolist() == expected.view(np.int64).tolist()
    assert cols["k"].tolist() == k.tolist()
    assert cols["flag"].tolist() == flag.astype(float).tolist()


def test_write_table_never_rounds_a_large_integer_column(tmp_path):
    """Each column is formatted by its own dtype, so an integer beyond 2**53
    next to a float column is written exactly; a column that is neither
    bool, integer nor float is refused by name before the file is opened."""
    big = np.array([2**53 + 1, -(2**63)], dtype=np.int64)
    dataio.write_table(tmp_path / "mixed.csv", [np.array([0.5, 1.5]), big], ["x", "count"])
    assert (tmp_path / "mixed.csv").read_text().splitlines()[1:] == \
        ["5.000000000000e-01,9007199254740993", "1.500000000000e+00,-9223372036854775808"]
    with pytest.raises(ValueError, match="column label"):
        dataio.write_table(tmp_path / "text.csv", [np.array([0.5, 1.5]), np.array(["a", "b"])],
                           ["x", "label"])
    assert not (tmp_path / "text.csv").exists()


def test_malformed_csv_reports_line_number(tmp_path):
    data = tmp_path / "broken.csv"
    data.write_text("wavelength_nm,counts\n1.0,2.0\n3.0\n")
    rc = main(["fit", "peaks", "--data", str(data), "--out", str(tmp_path / "o")])
    assert rc == EXIT_INPUT


def test_bandedges_matches_golden_payload(tmp_path):
    """Every band golden, byte for byte: the four standard biases, the
    +/-2 V ends of the scanned span, and Boltzmann statistics at 0.7 V."""
    biases = ["-0.5", "0", "0.5", "1.0", "-2", "2"]
    rc = main(["bandedges", *_bias_args(biases), "--out", str(tmp_path / "fermi")])
    assert rc == EXIT_OK
    rc = main(["bandedges", "--statistics", "boltzmann", "--bias", "0.7",
               "--out", str(tmp_path / "boltzmann")])
    assert rc == EXIT_OK
    pairs = [(tmp_path / "fermi" / name, name) for name in (
        "band_m0.500V.csv", "band_p0.000V.csv", "band_p0.500V.csv", "band_p1.000V.csv",
        "band_m2.000V.csv", "band_p2.000V.csv")]
    pairs.append((tmp_path / "boltzmann" / "band_p0.700V.csv", "band_boltzmann_p0.700V.csv"))
    for produced, golden in pairs:
        assert produced.read_bytes() == (GOLDEN / golden).read_bytes(), golden


@pytest.mark.parametrize("name", sorted(FIT_COMMANDS))
def test_fit_matches_golden(name, tmp_path, monkeypatch):
    """Report and residuals of every fit command, byte for byte. The report
    records its input paths as given, so the command runs from the
    repository root with the relative paths scripts/make_golden.py used."""
    monkeypatch.chdir(ROOT)
    assert main([*FIT_COMMANDS[name], "--out", str(tmp_path)]) == EXIT_OK
    for file in ("fit_report.txt", "fit_residuals.csv"):
        assert (tmp_path / file).read_bytes() == (GOLDEN / name / file).read_bytes(), file


def _bandedges_stderr(tmp_path, *args):
    """stderr of a successful `bandedges` run in a fresh interpreter, where
    numpy's default error handling prints floating-point warnings."""
    proc = subprocess.run(
        [sys.executable, "-m", "dotdiode.cli", "bandedges", *args, "--out", str(tmp_path)],
        capture_output=True, text=True, env=_fresh_interpreter_env())
    assert proc.returncode == EXIT_OK
    return proc.stderr


def test_boltzmann_bandedges_writes_nothing_to_stderr(tmp_path):
    """A line-search trial whose residual overflows is rejected silently."""
    assert _bandedges_stderr(tmp_path, "--statistics", "boltzmann", "--bias", "0.7") == ""


def test_bandedges_writes_nothing_to_stderr(tmp_path):
    """Writing a diagram's zero fields and tiny densities raises no warning."""
    assert _bandedges_stderr(tmp_path, "--bias", "0.0") == ""


def _cli_import_loads(module):
    """Whether a fresh interpreter's `import dotdiode.cli` loads `module`."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, dotdiode.cli; print({module!r} in sys.modules)"],
        capture_output=True, text=True, env=_fresh_interpreter_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def test_cli_import_does_not_load_scipy_optimize():
    """Only the fitters and the Stark calibration need scipy.optimize, so
    importing the CLI for bandedges or iv does not pay for it."""
    assert not _cli_import_loads("scipy.optimize")


def test_cli_import_does_not_load_scipy_special():
    """Only the g2 model needs scipy.special (erfcx); it is imported there."""
    assert not _cli_import_loads("scipy.special")


def test_cli_import_does_not_load_scipy_linalg():
    """LAPACK comes from scipy's _flapack extension file: the scipy.linalg
    package's own imports (numpy.f2py, numpy.testing, ...) would about
    double the start-up of every command."""
    assert not _cli_import_loads("scipy.linalg")


def test_star_import_binds_every_public_name():
    """In a fresh interpreter, `from dotdiode import *` succeeds and binds
    each name of `__all__`."""
    proc = subprocess.run(
        [sys.executable, "-c", "from dotdiode import *; import dotdiode; "
         "print([name for name in dotdiode.__all__ if name not in globals()])"],
        capture_output=True, text=True, env=_fresh_interpreter_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_a_missing_lapack_extension_fails_the_import_naming_its_directory(tmp_path):
    (tmp_path / "scipy" / "linalg").mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text("")
    env = _fresh_interpreter_env()
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), env["PYTHONPATH"]])
    proc = subprocess.run([sys.executable, "-c", "import dotdiode.cli"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == ("ImportError: scipy's LAPACK extension _flapack "
                                            f"is not in {tmp_path / 'scipy' / 'linalg'}")


def _run_main_in_fresh_interpreter(argv, env=None):
    """A fresh interpreter's `main(argv)`; its stdout line is the exit code
    and the scipy subpackages then in sys.modules."""
    code = ("import sys; from dotdiode.cli import main; rc = main(%r); "
            "print(rc, sorted({m.split('.')[1] for m in sys.modules if m.count('.') == 1 "
            "and m.startswith('scipy.')}))" % (argv,))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env or _fresh_interpreter_env())


@pytest.mark.parametrize("argv", [
    ["fit", "peaks", "--shape", "voigt", "--data", str(GOLDEN / "fit_inputs" / "voigt.csv")],
    ["fit", "g2", "--data", _g2_reference_path()],
    ["fit", "lifetime", "--data", str(GOLDEN / "fit_inputs" / "decay.csv")],
], ids=["peaks-voigt", "g2", "lifetime"])
def test_a_fit_process_loads_neither_scipy_optimize_nor_scipy_special(tmp_path, argv):
    """A fit takes MINPACK and erfcx from scipy's extension files, as the
    solvers take LAPACK: the two packages would add about 0.4 s to a fit."""
    proc = _run_main_in_fresh_interpreter([*argv, "--out", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    rc, _, loaded = proc.stdout.strip().partition(" ")
    assert int(rc) == EXIT_OK
    assert "optimize" not in loaded and "special" not in loaded, loaded


def test_a_missing_minpack_extension_fails_a_fit_naming_its_directory(tmp_path):
    """A scipy without optimize/_minpack still imports the CLI, whose LAPACK
    stand-in here is a Python file; the first fit then names the directory."""
    (tmp_path / "scipy" / "linalg").mkdir(parents=True)
    (tmp_path / "scipy" / "optimize").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    (tmp_path / "scipy" / "linalg" / "_flapack.py").write_text("dgtsv = dgbtrf = dgbtrs = None\n")
    env = _fresh_interpreter_env()
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), env["PYTHONPATH"]])
    proc = _run_main_in_fresh_interpreter(
        ["fit", "peaks", "--data", str(GOLDEN / "fit_inputs" / "peaks3.csv"),
         "--out", str(tmp_path / "o")], env)
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == ("ImportError: scipy's MINPACK extension _minpack "
                                            f"is not in {tmp_path / 'scipy' / 'optimize'}")


def test_synthmap_matches_golden(tmp_path):
    rc = main(["synthmap", "--seed", "42", "--vmin", "0.85", "--vmax", "1.35",
               "--nv", "11", "--lmin", "1529", "--lmax", "1539", "--nl", "201",
               "--out", str(tmp_path)])
    assert rc == EXIT_OK
    produced = (tmp_path / "emission_map.csv").read_text().splitlines()
    golden = (GOLDEN / "emission_map_small.csv").read_text().splitlines()
    # identical numeric payload; metadata headers may differ
    assert [l for l in produced if not l.startswith("#")] == \
           [l for l in golden if not l.startswith("#")]


def test_synthmap_out_of_ladder_range_is_input_error(tmp_path):
    rc = main(["synthmap", "--vmin", "0.2", "--vmax", "1.2", "--out", str(tmp_path)])
    assert rc == EXIT_INPUT


def test_commands_are_byte_identical_across_runs(tmp_path):
    for run in ("a", "b"):
        rc = main(["synthmap", "--seed", "7", "--nv", "9", "--nl", "101",
                   "--out", str(tmp_path / ("map_" + run))])
        assert rc == EXIT_OK
        rc = main(["stark", "--out", str(tmp_path / ("stark_" + run))])
        assert rc == EXIT_OK
    assert (tmp_path / "map_a" / "emission_map.csv").read_bytes() == \
           (tmp_path / "map_b" / "emission_map.csv").read_bytes()
    assert (tmp_path / "stark_a" / "stark_report.txt").read_bytes() == \
           (tmp_path / "stark_b" / "stark_report.txt").read_bytes()
