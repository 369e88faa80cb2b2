#!/usr/bin/env python3
"""Regenerate the golden files under tests/golden/.

Band diagrams of the reference diode at the four standard biases, its
default 13-point dark IV sweep (the biases of ``dotdiode iv``), a lit
sweep under 1e22 cm^-3 s^-1 generation from 0 to 2 V in 0.5 V steps, and
a small seeded emission map. Regenerate only when an intentional physics or
format change invalidates the stored files.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from dotdiode.device import load_reference_stack, build_mesh  # noqa: E402
from dotdiode.electrostatics import solve_bias  # noqa: E402
from dotdiode.transport import iv_sweep  # noqa: E402

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "tests" / "golden"
BIASES = [-0.5, 0.0, 0.5, 1.0]
IV_BIASES = [-1.0 + k * 0.25 for k in range(13)]   # dotdiode iv defaults
LIT_BIASES = [0.0, 0.5, 1.0, 1.5, 2.0]
LIT_GENERATION = 1e22                               # cm^-3 s^-1


def main():
    GOLDEN.mkdir(exist_ok=True)
    stack = load_reference_stack()
    mesh = build_mesh(stack)
    for bias in BIASES:
        diagram = solve_bias(stack, mesh, bias)
        name = f"band_{bias:+.3f}V.csv".replace("+", "p").replace("-", "m")
        diagram.to_csv(GOLDEN / name)
        print("wrote", GOLDEN / name)

    iv_sweep(stack, mesh, IV_BIASES).to_csv(GOLDEN / "iv_dark.csv")
    print("wrote", GOLDEN / "iv_dark.csv")
    iv_sweep(stack, mesh, LIT_BIASES, LIT_GENERATION).to_csv(GOLDEN / "iv_lit.csv")
    print("wrote", GOLDEN / "iv_lit.csv")

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
