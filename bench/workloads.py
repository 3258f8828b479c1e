"""Seeded workload generator: points drawn from fixed grids, in seeded order.

Every workload is a sequence of *rounds*.  A round holds one point for every
cell of the inputs that set an operation's cost (model, operation, tilt and
separation band), so every round has the same make-up whatever the seed and
the end-to-end figures do not depend on which seed drew them.  A band is a
centre separation and its neighbours 2% below and above; the seed picks one
of the three for each cell, and the order of the round.  Where a round
cannot hold every model for every cell, the models rotate over the cells
with the round number.  All grid points carry a reference value computed
once at ``rel_tol = 1e-11`` (``reference.json``, written by
``make_reference.py``); the program under test only ever sees the generated
inputs.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("matsubara_sweep", "zero_t_continuum", "optical_data", "cli_batch")

REL_TOL = 1e-9
TEMPERATURE_K = 300.0
R_UM = L_UM = 100.0
JITTER = (0.98, 1.0, 1.02)


def _bands(lo: float, hi: float, n: int) -> tuple[tuple[float, ...], ...]:
    """n band centres log-uniform over [lo, hi] nm, each with its jitter."""
    centres = (lo * (hi / lo) ** (i / (n - 1)) for i in range(n))
    return tuple(tuple(round(c * j, 1) for j in JITTER) for c in centres)


FINITE_T_BANDS = _bands(100.0, 2000.0, 16)
ZERO_T_BANDS = _bands(100.0, 1000.0, 3)
# the few T = 0 points of the optical-data workload, one per operation
OPTICAL_T0_POINTS = (("t0_force", 300.0), ("t0_gradient", 300.0))
TILTS = (0.01, 0.1, 0.5)

MATSUBARA_MODELS = ("ideal", "drude", "plasma", "plasma_osc", "dielectric")
ZERO_T_MODELS = ("ideal", "drude", "plasma")
# operation variants of the finite-T sweep: (op, tilt parameter A or 0)
MATSUBARA_VARIANTS = (("force", 0.0), ("gradient", 0.0)) + tuple(
    (op, A) for op in ("tilted_force", "tilted_gradient") for A in TILTS)
ZERO_T_OPS = ("t0_force", "t0_gradient", "delta_t_force")


@dataclass(frozen=True)
class Point:
    """One library call: operation, model name, separation (nm), tilt A."""

    op: str
    model: str
    a_nm: float
    a_theta: float = 0.0

    @property
    def key(self) -> str:
        return f"{self.op}|{self.model}|{self.a_nm!r}|{self.a_theta!r}"


@dataclass(frozen=True)
class CliCommand:
    """One CLI invocation; ``name`` keys its golden output files."""

    name: str
    argv: tuple[str, ...]
    plot: str | None = None

    @property
    def key(self) -> str:
        return f"cli|{self.name}"


# ---------------------------------------------------------------------------
# synthetic optical data
# ---------------------------------------------------------------------------

OPTICAL_ROWS = 400
OPTICAL_RANGE_EV = (0.1, 100.0)
TAIL_OMEGA_P, TAIL_GAMMA = 9.0, 0.035
# Lorentz interband terms (strength eV^2, resonance eV, width eV)
INTERBAND = ((20.0, 3.0, 1.0), (60.0, 6.0, 3.0), (100.0, 15.0, 10.0))


def optical_rows() -> list[tuple[float, float]]:
    """(omega eV, Im eps): Drude tail plus Lorentz interband terms, log grid."""
    lo, hi = OPTICAL_RANGE_EV
    rows = []
    for i in range(OPTICAL_ROWS):
        w = lo * (hi / lo) ** (i / (OPTICAL_ROWS - 1))
        im = TAIL_OMEGA_P**2 * TAIL_GAMMA / (w * (w * w + TAIL_GAMMA**2))
        for g, w0, gm in INTERBAND:
            im += g * gm * w / ((w0 * w0 - w * w) ** 2 + gm * gm * w * w)
        rows.append((w, im))
    return rows


def optical_file_text() -> str:
    return "# synthetic Drude + Lorentz optical data: omega_eV im_eps\n" + "".join(
        f"{w:.10e} {im:.10e}\n" for w, im in optical_rows())


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

def _rng(workload: str, seed: int, round_no: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_no}")


def _matsubara_round(rng: random.Random, round_no: int) -> list[Point]:
    # 8 variants x 16 bands: 128 points, the 5 models rotating over the cells
    n = len(MATSUBARA_MODELS)
    return [Point(op, MATSUBARA_MODELS[(v + b + round_no) % n], rng.choice(band), A)
            for v, (op, A) in enumerate(MATSUBARA_VARIANTS)
            for b, band in enumerate(FINITE_T_BANDS)]


def _zero_t_round(rng: random.Random, round_no: int) -> list[Point]:
    # 3 models x 3 operations x 3 bands: 27 points
    return [Point(op, m, rng.choice(band)) for m in ZERO_T_MODELS
            for op in ZERO_T_OPS for band in ZERO_T_BANDS]


def _optical_round(rng: random.Random, round_no: int) -> list[Point]:
    # 2 finite-T operations x 16 bands, plus the T = 0 points
    points = [Point(op, "tabulated", rng.choice(band)) for op in ("force", "gradient")
              for band in FINITE_T_BANDS]
    return points + [Point(op, "tabulated", a) for op, a in OPTICAL_T0_POINTS]


OPTICAL_FILE = "optical.dat"


def cli_commands() -> dict[str, CliCommand]:
    """Every CLI invocation the workload can issue, by golden-file name."""
    cmds = [
        CliCommand("asymptote", ("asymptote", "--a-sweep", "100:2000:5:log",
                                 "--model", "plasma")),
        CliCommand("edge_error", ("edge-error", "--a-sweep", "100:500:3")),
        CliCommand("kk_ingest", ("kk-ingest", OPTICAL_FILE)),
        CliCommand("tilted_point", ("gradient", "--a", "800", "--a-theta", "0.2",
                                    "--model", "plasma")),
        CliCommand("force_sweep", ("force", "--a-sweep", "100:1000:20:log")),
        CliCommand("gradient_tilt_sweep", ("gradient", "--a-sweep", "200:2000:20:log",
                                           "--a-theta", "0.1")),
        CliCommand("workers_sweep", ("force", "--a-sweep", "100:1000:20:log",
                                     "--model", "plasma", "--workers", "2")),
        CliCommand("json_plot_sweep", ("gradient", "--a-sweep", "150:1500:20:log",
                                       "--format", "json", "--plot", "plot.svg"),
                   plot="plot.svg"),
        CliCommand("force_point", ("force", "--a", "500")),
    ]
    return {c.name: c for c in cmds}


def _cli_round(rng: random.Random, round_no: int) -> list[CliCommand]:
    # a fixed command set: the seed only orders it
    return list(cli_commands().values())


# Rounds a measured run makes at least, so that the median latency rests on
# 50 or more ops: the shorter rounds have few distinct costs around their
# median, and one noisy op could move it.
MIN_ROUNDS = {"zero_t_continuum": 2, "optical_data": 3, "cli_batch": 3}

_ROUNDS = {"matsubara_sweep": _matsubara_round, "zero_t_continuum": _zero_t_round,
           "optical_data": _optical_round, "cli_batch": _cli_round}


def make_round(workload: str, seed: int, round_no: int) -> list:
    """The round_no-th round of a workload; same (seed, round_no), same list."""
    rng = _rng(workload, seed, round_no)
    items = _ROUNDS[workload](rng, round_no)
    rng.shuffle(items)
    return items


def reference_grid() -> list[Point]:
    """Every library point any seed can draw (the reference-value grid)."""
    pts = [Point(op, m, a, A) for m in MATSUBARA_MODELS
           for op, A in MATSUBARA_VARIANTS for band in FINITE_T_BANDS for a in band]
    pts += [Point(op, m, a) for m in ZERO_T_MODELS for op in ZERO_T_OPS
            for band in ZERO_T_BANDS for a in band]
    pts += [Point(op, "tabulated", a) for op in ("force", "gradient")
            for band in FINITE_T_BANDS for a in band]
    pts += [Point(op, "tabulated", a) for op, a in OPTICAL_T0_POINTS]
    return pts


# ---------------------------------------------------------------------------
# building and running library points
# ---------------------------------------------------------------------------

def build_models(cc, names) -> dict:
    """Material models by name; ``cc`` is the imported casimir_cyl package."""
    makers = {
        "ideal": lambda: cc.IdealMetal(),
        "drude": lambda: cc.Drude(omega_p=9.0, gamma=0.035),
        "plasma": lambda: cc.PlasmaOscillators(omega_p=9.0),
        "plasma_osc": lambda: cc.PlasmaOscillators(
            omega_p=9.0, oscillators=(cc.Oscillator(g=20.0, omega=3.0, gamma=1.0),)),
        "dielectric": lambda: cc.Dielectric(eps0=11.7),
        "tabulated": lambda: cc.Tabulated(
            table=cc.OpticalTable(*zip(*optical_rows())),
            tail=cc.Drude(omega_p=TAIL_OMEGA_P, gamma=TAIL_GAMMA)),
    }
    return {n: makers[n]() for n in names}


def workload_models(workload: str) -> tuple[str, ...]:
    return {"matsubara_sweep": MATSUBARA_MODELS, "zero_t_continuum": ZERO_T_MODELS,
            "optical_data": ("tabulated",), "cli_batch": ()}[workload]


def fill_lazy_state(cc) -> None:
    """Build the zeta tables behind the small-mu polylog expansion."""
    for s in (0.5, -0.5, 1.5):
        cc.polylog_exp_neg(s, 0.25)


def run_point(cc, models: dict, point: Point, rel_tol: float = REL_TOL):
    """Evaluate one point through the module attributes (so tracing sees it).

    Returns (value, l_used, truncation_estimate).
    """
    core, tilt = cc.casimir_core, cc.tilt
    geom = cc.Geometry(a=point.a_nm * 1e-9, R=R_UM * 1e-6, L=L_UM * 1e-6)
    quad = cc.QuadratureSpec(rel_tol=rel_tol)
    model = models[point.model]
    op = point.op
    if op == "delta_t_force":
        return core.thermal_correction(geom, model, quad, "force", TEMPERATURE_K), 0, math.nan
    if op in ("t0_force", "t0_gradient"):
        fn = core.zero_temperature_force if op == "t0_force" else core.zero_temperature_gradient
        res = fn(geom, model, quad)
    else:
        thermal = cc.ThermalState.at(TEMPERATURE_K, geom)
        if op == "force":
            res = core.cylinder_force(geom, thermal, model, quad)
        elif op == "gradient":
            res = core.cylinder_force_gradient(geom, thermal, model, quad)
        else:
            tp = cc.TiltParams.from_a_theta(point.a_theta, geom)
            fn = tilt.tilted_force if op == "tilted_force" else tilt.tilted_gradient
            res = fn(geom, thermal, model, tp, quad)
    return res.value, res.l_used, res.truncation_estimate


def closed_form(cc, point: Point) -> float | None:
    """Exact ideal-metal T = 0 value where one exists, else None."""
    if point.model != "ideal" or point.op not in ("t0_force", "t0_gradient"):
        return None
    geom = cc.Geometry(a=point.a_nm * 1e-9, R=R_UM * 1e-6, L=L_UM * 1e-6)
    if point.op == "t0_force":
        return cc.ideal_metal_force_t0(geom)
    return cc.ideal_metal_gradient_t0(geom)
