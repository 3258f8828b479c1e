"""The CLI in fresh processes: a sweep's rows equal those of single-point runs.

A sweep computes the l = 0 term at its first point and reuses it after (every
model but plasma, whose l = 0 cache key changes with a), and at T = 0 reuses
the product rule from its second point on (the ideal metal and the static
dielectric reuse the whole T = 0 integral, in X(0) of a thermal correction
too).  Its rows must equal, byte for byte, those of one fresh process per
separation, header lines aside.

The ideal metal and the static dielectric read their finite-T rows l >= 1
from pieces of ln I(zeta), one per binary exponent of zeta, built by the
first separation that touches it; a fresh process at any one separation must
read the same rows.  The ideal metal, flat or tilted, runs its one r^2 = 1
channel, doubled, with no eps and no ln r^2.  Tilted plasma (its TE l = 0 channel depends on v) and
dielectric sweeps run the tilted kernel on every channel.  A sweep shares one
ThermalState and one --a-theta TiltParams over its separations, while --theta
builds the tilt of each separation.  A tabulated sweep builds pieces of
eps(i xi), one per binary exponent of xi, at first use and reuses them; its
X(T), X(0) and gradient must read them as a fresh process does.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import casimir_cyl

_SRC = str(Path(casimir_cyl.__file__).resolve().parent.parent)
_SEPARATIONS = ("100", "200", "300", "400")

CASES = [(f"force --model {model}", T)
         for model in ("drude", "dielectric --eps0 11.7") for T in ("300", "0")] + [
    ("force --model plasma", "300"),
    ("force --model plasma --a-theta 0.3", "300"),
    ("force --model ideal --a-theta 0.5", "300"),
    ("gradient --model dielectric --eps0 11.7 --a-theta 0.3", "300"),
    ("gradient --model ideal", "300"),
    ("gradient --model ideal", "30"),
    ("thermal-correction --model drude", "300"),
    ("force --model drude --theta 1e-4", "300"),
    ("thermal-correction --model ideal", "300"),
    ("thermal-correction --model dielectric --eps0 11.7 --which gradient", "300"),
    ("gradient --model ideal --a-theta 0.5", "0"),
    ("force --model tabulated --optical-data steep.dat", "300"),
    ("force --model tabulated --optical-data steep.dat", "0"),
    ("thermal-correction --model tabulated --optical-data steep.dat", "300"),
    ("gradient --model tabulated --optical-data steep.dat", "0"),
]


def _table(cwd: Path, *argv: str) -> list[bytes]:
    """The lines of one fresh ``python -m casimir_cyl.cli`` run, ``#`` lines
    dropped (they name the run's own a or a_sweep)."""
    done = subprocess.run([sys.executable, "-m", "casimir_cyl.cli", *argv],
                          capture_output=True, cwd=cwd, check=True,
                          env=dict(os.environ, PYTHONPATH=_SRC))
    return [ln for ln in done.stdout.splitlines(keepends=True) if not ln.startswith(b"#")]


@pytest.mark.parametrize("command, T", CASES, ids=[f"{c} T={T}" for c, T in CASES])
def test_sweep_rows_equal_single_point_runs(steep_table, command, T):
    cwd = steep_table.parent  # the tabulated cases name steep.dat
    argv = command.split() + ["--T", T]
    sweep = _table(cwd, *argv, "--a-sweep", "100:400:4")
    header, points = None, []
    for a in _SEPARATIONS:
        header, *rows = _table(cwd, *argv, "--a", a)
        points += rows
    assert header.startswith(b"a_nm,") and len(points) == len(_SEPARATIONS)
    assert b"".join(sweep) == header + b"".join(points)
