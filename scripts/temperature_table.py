#!/usr/bin/env python3
"""Print the dark-transport temperature table of ROADMAP item 4.

    python3 scripts/temperature_table.py

For each temperature of the table (4 to 400 K) the reference stack is
swept over 0, 0.5 and 1 V, and at 77 K and 150 K over the 13 biases of a
default ``dotdiode iv``. Every sweep runs with warnings raised as errors.
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


def sweep(temperature, biases):
    """One table cell: the points as 'Y12' / 'N3' and the wall time."""
    stack = dataclasses.replace(load_reference_stack(), temperature=float(temperature))
    mesh = build_mesh(stack)
    start = time.perf_counter()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = iv_sweep(stack, mesh, list(biases))
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


if __name__ == "__main__":
    main()
