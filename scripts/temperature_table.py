#!/usr/bin/env python3
"""Print the transport temperature tables of ROADMAP item 10.

    python3 scripts/temperature_table.py

For each temperature of the table (4 to 400 K) the reference stack is
swept over 0, 0.5 and 1 V, and at 77 K and 150 K over the 13 biases of a
default ``dotdiode iv``. A wide table sweeps -1.5 to 2 V in 0.25 V steps
at 30 to 90 K, where a rung once reported a false point as converged. A
last table sweeps 0, 0.5 and 1 V under a generation of 1e22 cm^-3 s^-1 at
40 to 300 K. Every sweep runs with warnings raised as errors.
A row gives each point as converged (Y) or failed (N) with the iterations
``IVPoint.gummel_iterations`` reports for it, and the sweep's wall time; a
sweep that raises prints the exception instead.

Standard library and the repository's own dependencies only; the package is
imported from ``src/`` next to this script.
"""

from __future__ import annotations

import dataclasses
import sys
import time
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dotdiode.device import build_mesh, load_reference_stack  # noqa: E402
from dotdiode.transport import iv_sweep  # noqa: E402

TEMPERATURES = (4, 7, 15, 20, 30, 40, 55, 77, 90, 120, 150, 180, 230, 300, 350, 400)
SHORT = (0.0, 0.5, 1.0)
DEFAULT = tuple(-1.0 + 0.25 * k for k in range(13))
DEFAULT_AT = (77, 150)
WIDE = tuple(-1.5 + 0.25 * k for k in range(15))
WIDE_AT = (30, 40, 55, 60, 77, 85, 90)
LIT_AT = (40, 60, 77, 120, 150, 200, 230, 300)
LIT_GENERATION = 1e22       # cm^-3 s^-1


def sweep(temperature, biases, generation=0.0):
    """One table cell: the points as 'Y12' / 'N3' and the wall time."""
    stack = dataclasses.replace(load_reference_stack(), temperature=float(temperature))
    mesh = build_mesh(stack)
    start = time.perf_counter()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = iv_sweep(stack, mesh, list(biases), generation)
    except Exception as exc:            # noqa: BLE001 - the table reports it
        return f"raises {type(exc).__name__}: {exc}", time.perf_counter() - start
    cells = " ".join(f"{'Y' if pt.converged else 'N'}{pt.gummel_iterations}"
                     for pt in curve.points)
    return cells, time.perf_counter() - start


def main():
    print("| T (K) | 0 / 0.5 / 1 V | s |")
    print("|---|---|---|")
    for temperature in TEMPERATURES:
        cells, seconds = sweep(temperature, SHORT)
        print(f"| {temperature} | {cells} | {seconds:.2f} |", flush=True)
    print()
    print("| T (K) | default sweep, -1 to 2 V | s |")
    print("|---|---|---|")
    for temperature in DEFAULT_AT:
        cells, seconds = sweep(temperature, DEFAULT)
        print(f"| {temperature} | {cells} | {seconds:.2f} |", flush=True)
    print()
    print("| T (K) | wide sweep, -1.5 to 2 V | s |")
    print("|---|---|---|")
    for temperature in WIDE_AT:
        cells, seconds = sweep(temperature, WIDE)
        print(f"| {temperature} | {cells} | {seconds:.2f} |", flush=True)
    print()
    print(f"| T (K) | 0 / 0.5 / 1 V at generation {LIT_GENERATION:g} | s |")
    print("|---|---|---|")
    for temperature in LIT_AT:
        cells, seconds = sweep(temperature, SHORT, LIT_GENERATION)
        print(f"| {temperature} | {cells} | {seconds:.2f} |", flush=True)


if __name__ == "__main__":
    main()
