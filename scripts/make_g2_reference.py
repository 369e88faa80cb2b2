#!/usr/bin/env python3
"""Regenerate the bundled synthetic photon-correlation trace.

The instrument parameters are calibrated so the noiseless binned minimum
of the trace equals 0.18 for a true dip of 0.04 at a 2.2 ns correlation
time; the bundled CSV then carries seeded Poisson counts at a 1000-count
plateau. Run from the repository root.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from dotdiode import dataio  # noqa: E402
from dotdiode.spectro_fit import calibrate_g2_instrument, synth_g2_trace  # noqa: E402

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "dotdiode" / "data"

G0 = 0.04
TAU_C_NS = 2.2
BIN_NS = 0.256
RAW_MIN_TARGET = 0.18
PLATEAU = 1000.0
SEED = 20240848


def main():
    sigma = calibrate_g2_instrument(G0, TAU_C_NS, BIN_NS, RAW_MIN_TARGET)
    trace = synth_g2_trace(G0, TAU_C_NS, sigma, BIN_NS, tau_max_ns=15.0,
                           plateau_counts=PLATEAU, seed=SEED)
    dataio.write_table(
        DATA / "g2_reference.csv",
        [trace.delay_ns, trace.coincidences],
        ["delay_ns", "coincidences"],
        meta={
            "bin_width_ns": BIN_NS,
            "irf_sigma_ns": sigma,
            "true_g0": G0,
            "true_tau_c_ns": TAU_C_NS,
            "plateau_counts": PLATEAU,
            "seed": SEED,
        })
    print(f"irf sigma = {sigma:.6f} ns; wrote {DATA / 'g2_reference.csv'}")


if __name__ == "__main__":
    main()
