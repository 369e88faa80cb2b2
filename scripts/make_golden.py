#!/usr/bin/env python3
"""Regenerate the golden files under tests/golden/.

Band diagrams of the reference diode at the four standard biases, at the
+/-2 V ends of the benchmark's band scan and, with Boltzmann statistics,
at 0.7 V, each set from one ``band_sweep`` as ``dotdiode bandedges`` solves
it, a small seeded emission map, and the report and residuals of
every ``dotdiode fit`` command on seeded synthetic inputs (written to
``fit_inputs/``) and on the bundled g2 trace. Regenerate only when an
intentional physics or format change invalidates the stored files.

A fit report records its input paths exactly as given, so the fit commands
run from the repository root with the relative paths in ``FIT_COMMANDS``;
the test that compares the fit goldens does the same.

The IV anchors ``iv_dark.csv`` (the default 13-point dark sweep) and
``iv_lit.csv`` (0 to 2 V under 1e22 cm^-3 s^-1 generation) are frozen:
the tests hold the solver to them, so this script never rewrites them.
They change only on purpose, in a change that says why.
"""

import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from dotdiode import dataio, spectro_fit as sf  # noqa: E402
from dotdiode.device import load_reference_stack, build_mesh  # noqa: E402
from dotdiode.electrostatics import band_sweep  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
BIASES = [-0.5, 0.0, 0.5, 1.0, -2.0, 2.0]
BOLTZMANN_BIASES = [0.7]

FIT_INPUTS = "tests/golden/fit_inputs"      # relative to ROOT, as the reports record it
FSS_ANGLES = np.linspace(0.0, 330.0, 12)
FIT_COMMANDS = {                            # golden directory -> `dotdiode` arguments
    "fit_peaks": ["fit", "peaks", "--data", f"{FIT_INPUTS}/peaks3.csv", "--n-peaks", "3"],
    "fit_voigt": ["fit", "peaks", "--data", f"{FIT_INPUTS}/voigt.csv", "--shape", "voigt"],
    "fit_fss": ["fit", "fss", *[arg for angle in FSS_ANGLES
                                for arg in ("--data", f"{FIT_INPUTS}/fss_{angle:05.1f}.csv")]],
    "fit_power": ["fit", "power", "--data", f"{FIT_INPUTS}/power.csv"],
    "fit_g2": ["fit", "g2", "--data", "src/dotdiode/data/g2_reference.csv"],
    "fit_lifetime": ["fit", "lifetime", "--data", f"{FIT_INPUTS}/decay.csv"],
}


def write_fit_inputs():
    """Seeded synthetic spectra, polarization series, power and decay series."""
    inputs = ROOT / FIT_INPUTS
    inputs.mkdir(exist_ok=True)

    def spectrum(name, spec):
        meta = {}
        if spec.polarizer_angle_deg is not None:
            meta["polarizer_angle_deg"] = spec.polarizer_angle_deg
        dataio.write_table(inputs / name, [spec.wavelength_nm, spec.counts],
                           ["wavelength_nm", "counts"], meta=meta)

    spectrum("peaks3.csv", sf.synth_spectrum(
        np.linspace(1528.0, 1540.0, 1201),
        [(1530.2, 0.08, 1500.0), (1534.1, 0.12, 900.0), (1537.8, 0.10, 1200.0)],
        background=20.0, seed=11))
    wl = np.linspace(1532.0, 1536.0, 401)
    counts = np.random.default_rng(12).poisson(
        20.0 + sf.voigt_profile_peak(wl, 1534.05, 0.12, 1200.0))
    spectrum("voigt.csv", sf.Spectrum(wavelength_nm=wl, counts=counts))
    for spec in sf.synth_polarization_series(1534.0, 25.0, FSS_ANGLES, theta0_deg=30.0,
                                             seed=13):
        spectrum(f"fss_{spec.polarizer_angle_deg:05.1f}.csv", spec)
    p, i = sf.synth_power_series(1.2, np.geomspace(0.01, 100.0, 40), noise_frac=0.02,
                                 p_sat_uW=10.0, seed=17)
    dataio.write_table(inputs / "power.csv", [p, i], ["power_uW", "intensity"])
    trace = sf.synth_decay_trace([(0.45, 0.3), (2.2, 0.7)], seed=19)
    dataio.write_table(inputs / "decay.csv", [trace.time_ns, trace.counts],
                       ["time_ns", "counts"])


def main():
    GOLDEN.mkdir(exist_ok=True)
    stack = load_reference_stack()
    mesh = build_mesh(stack)
    for statistics, biases, prefix in (("fermi", BIASES, "band_"),
                                       ("boltzmann", BOLTZMANN_BIASES, "band_boltzmann_")):
        for bias, diagram in band_sweep(stack, mesh, biases, statistics):
            if isinstance(diagram, Exception):
                raise diagram
            name = prefix + f"{bias:+.3f}V.csv".replace("+", "p").replace("-", "m")
            diagram.to_csv(GOLDEN / name)
            print("wrote", GOLDEN / name)

    import tempfile
    from dotdiode.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        rc = cli_main(["synthmap", "--seed", "42", "--vmin", "0.85", "--vmax", "1.35",
                       "--nv", "11", "--lmin", "1529", "--lmax", "1539", "--nl", "201",
                       "--out", tmp])
        assert rc == 0
        text = (pathlib.Path(tmp) / "emission_map.csv").read_text()
    (GOLDEN / "emission_map_small.csv").write_text(text)
    print("wrote", GOLDEN / "emission_map_small.csv")

    write_fit_inputs()
    os.chdir(ROOT)
    for name, argv in FIT_COMMANDS.items():
        rc = cli_main([*argv, "--out", str(GOLDEN / name)])
        assert rc == 0, name
        print("wrote", GOLDEN / name)


if __name__ == "__main__":
    main()
