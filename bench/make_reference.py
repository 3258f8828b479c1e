"""Regenerate the committed reference data of the benchmark.

    python3 bench/make_reference.py            # reference.json at rel_tol 1e-11
    python3 bench/make_reference.py --golden   # CLI golden outputs in golden/

Run from the repository root.  The reference values are computed once, at a
tolerance 100x tighter than the benchmark's, and are never regenerated by a
change that claims a speed-up; the golden CLI outputs are captured from the
code the benchmark was defined on.
"""
from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

REFERENCE_TOL = 1e-11


def _reference_value(point: wl.Point):
    import casimir_cyl as cc
    models = wl.build_models(cc, [point.model])
    value, l_used, _ = wl.run_point(cc, models, point, rel_tol=REFERENCE_TOL)
    return point.key, {"value": value, "l_used": l_used}


def make_reference() -> None:
    grid = wl.reference_grid()
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(2) as pool:
        values = dict(pool.map(_reference_value, grid, chunksize=4))
    payload = {"rel_tol": REFERENCE_TOL, "temperature_K": wl.TEMPERATURE_K,
               "R_um": wl.R_UM, "L_um": wl.L_UM,
               "points": {p.key: values[p.key] for p in grid}}
    (HERE / "reference.json").write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {len(grid)} reference points")


def make_golden() -> None:
    golden = HERE / "golden"
    golden.mkdir(exist_ok=True)
    work = ROOT / ".bench_work" / "golden"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / wl.OPTICAL_FILE).write_text(wl.optical_file_text())
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for cmd in wl.cli_commands().values():
        proc = subprocess.run([sys.executable, "-m", "casimir_cyl.cli", *cmd.argv],
                              cwd=work, env=env, capture_output=True, check=True)
        (golden / f"{cmd.name}.out").write_bytes(proc.stdout)
        if cmd.plot:
            shutil.copyfile(work / cmd.plot, golden / f"{cmd.name}.svg")
    shutil.rmtree(work)
    print(f"wrote {len(wl.cli_commands())} golden outputs")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--golden", action="store_true",
                        help="capture CLI golden outputs instead")
    args = parser.parse_args()
    if args.golden:
        make_golden()
    else:
        make_reference()


if __name__ == "__main__":
    main()
