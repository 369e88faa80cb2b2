#!/usr/bin/env python3
"""Regenerate the reference IV curves under perfbench/reference/.

Runs the two IV workloads' `dotdiode iv` commands and stores their iv.csv
files. The benchmark checks every IV point against these curves within
workloads.IV_RTOL. Regenerate only when an intentional physics change
moves the curves, and say so where the change is recorded.

    python3 perfbench/make_reference.py
"""

import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from dotdiode import cli  # noqa: E402

from workloads import IV_ARGS, REFERENCE  # noqa: E402


def main():
    REFERENCE.mkdir(exist_ok=True)
    for name, args in IV_ARGS.items():
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            rc = cli.main(["iv", *args, "--out", tmp])
            if rc != 0:
                sys.exit(f"{name}: dotdiode iv exited {rc}")
            shutil.copyfile(Path(tmp) / "iv.csv", REFERENCE / f"{name}.csv")
        print("wrote", REFERENCE / f"{name}.csv")


if __name__ == "__main__":
    main()
