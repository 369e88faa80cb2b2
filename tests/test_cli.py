import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import dotdiode
from dotdiode import dataio
from dotdiode.cli import main, EXIT_OK, EXIT_INPUT
from dotdiode import spectro_fit as sf

GOLDEN = Path(__file__).parent / "golden"


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


def test_bandedges_bad_device_schema(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"layers": [{"material": "InP"}]}))
    rc = main(["bandedges", "--device", str(bad), "--bias", "0",
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_INPUT


def test_iv_zero_width_range_single_point(tmp_path):
    rc = main(["iv", "--vmin", "0.3", "--vmax", "0.3", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    cols, meta = dataio.read_table(tmp_path / "iv.csv")
    assert cols["bias_V"].size == 1
    assert list(cols) == ["bias_V", "J_Acm2", "I_A", "abs_I_A",
                          "gummel_iterations", "converged"]
    assert cols["abs_I_A"][0] == abs(cols["I_A"][0])


def test_iv_csv_records_cycles_and_convergence_but_no_seed(tmp_path):
    rc = main(["iv", "--vmin", "0.25", "--vmax", "0.5", "--out", str(tmp_path / "iv")])
    assert rc == EXIT_OK
    cols, meta = dataio.read_table(tmp_path / "iv" / "iv.csv")
    assert list(cols["converged"]) == [1.0, 1.0]
    assert np.all(cols["gummel_iterations"] >= 1)
    assert np.all(cols["gummel_iterations"] == np.round(cols["gummel_iterations"]))
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


@pytest.mark.parametrize("temperature", [0, "300"])
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
    assert "temperature" in err


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
    values = np.array([0.0, -0.0, 1e-300, -2.5e17, np.nan, np.inf, -np.inf, 1.0 / 3.0])
    columns = [values, np.arange(values.size), values > 0]
    path = tmp_path / "t.csv"
    dataio.write_table(path, columns, ["x", "k", "flag"], meta={"a": 1})
    rows = [",".join(dataio.format_float(v) for v in row) for row in zip(*columns)]
    assert path.read_text() == "\n".join(["# a = 1", "x,k,flag", *rows]) + "\n"


def test_malformed_csv_reports_line_number(tmp_path):
    data = tmp_path / "broken.csv"
    data.write_text("wavelength_nm,counts\n1.0,2.0\n3.0\n")
    rc = main(["fit", "peaks", "--data", str(data), "--out", str(tmp_path / "o")])
    assert rc == EXIT_INPUT


def test_bandedges_matches_golden_payload(tmp_path):
    """Every band golden, byte for byte: the four standard biases, the
    +/-2 V ends of the scanned span, and Boltzmann statistics at 0.7 V."""
    biases = ["-0.5", "0", "0.5", "1.0", "-2", "2"]
    rc = main(["bandedges", *(a for b in biases for a in ("--bias", b)),
               "--out", str(tmp_path / "fermi")])
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


def test_boltzmann_bandedges_writes_nothing_to_stderr(tmp_path):
    """A line-search trial whose residual overflows is rejected silently.

    Runs the CLI in a fresh interpreter, where numpy's default error
    handling prints floating-point warnings to stderr.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "dotdiode.cli", "bandedges", "--statistics", "boltzmann",
         "--bias", "0.7", "--out", str(tmp_path)],
        capture_output=True, text=True, env=_fresh_interpreter_env())
    assert proc.returncode == EXIT_OK
    assert proc.stderr == ""


def test_cli_import_does_not_load_scipy_optimize():
    """Only the fitters and the Stark calibration need scipy.optimize, so
    importing the CLI for bandedges or iv does not pay for it."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, dotdiode.cli; print('scipy.optimize' in sys.modules)"],
        capture_output=True, text=True, env=_fresh_interpreter_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
