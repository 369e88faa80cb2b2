#!/usr/bin/env python3
"""Regenerate the golden files under tests/golden/.

Band diagrams of the reference diode at the four standard biases, at the
+/-2 V ends of the benchmark's band scan and, with Boltzmann statistics,
at 0.7 V, and a small seeded emission map. Regenerate only when an
intentional physics or format change invalidates the stored files.

The IV anchors ``iv_dark.csv`` (the default 13-point dark sweep) and
``iv_lit.csv`` (0 to 2 V under 1e22 cm^-3 s^-1 generation) are frozen:
the tests hold the solver to them, so this script never rewrites them.
They change only on purpose, in a change that says why.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from dotdiode.device import load_reference_stack, build_mesh  # noqa: E402
from dotdiode.electrostatics import solve_bias  # noqa: E402

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "tests" / "golden"
BIASES = [-0.5, 0.0, 0.5, 1.0, -2.0, 2.0]
BOLTZMANN_BIASES = [0.7]


def main():
    GOLDEN.mkdir(exist_ok=True)
    stack = load_reference_stack()
    mesh = build_mesh(stack)
    for statistics, biases, prefix in (("fermi", BIASES, "band_"),
                                       ("boltzmann", BOLTZMANN_BIASES, "band_boltzmann_")):
        for bias in biases:
            name = prefix + f"{bias:+.3f}V.csv".replace("+", "p").replace("-", "m")
            solve_bias(stack, mesh, bias, statistics).to_csv(GOLDEN / name)
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


if __name__ == "__main__":
    main()
