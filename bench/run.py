"""Layered benchmark of casimir-cyl: seeded closed-loop workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out F]
    python3 bench/run.py --all --seed N [--repeat K] [--trace 0|1] [--out F]
    python3 bench/run.py --compare A.json B.json

Run from the repository root.  One client issues one operation at a time
(closed loop): a library call for one point, or one CLI invocation.  With
``--trace 0`` the run measures the end-to-end metrics over whole rounds for
at least ``--seconds``; with ``--trace 1`` it runs round 0 once untraced and
once under the outside tracer and reports per-layer counts and self times.
Every operation's output is checked; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out``
writes the full record (metrics plus every computed value) for ``--compare``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_PROBES = 5
WARMUP_S = 2.0
# Accepted deviation from the 1e-11 reference.  On the engine this benchmark
# was defined on, the worst grid points (tilted gradient, A = 0.5, 100 nm)
# sit at 10.5-10.6x rel_tol, so a 10x gate would fail correct output; ops
# beyond 10x are listed in every run's summary (``over_10x_rel_tol``) as the
# error-honesty defect they are.
GATE = 20.0 * wl.REL_TOL
HONEST_DEV = 10.0 * wl.REL_TOL
CLOSED_FORM_TOL = 1e-8            # ideal-metal T = 0 against the closed forms
P90_MIN_SAMPLES = 100
# Typical times of the two calibration kernels on the 2-CPU Xeon host the
# benchmark was defined on; they only set the scale of normalized timings.
CAL_NOMINAL_S = 3.0e-3
SPAWN_CAL_NOMINAL_S = 0.2

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_latency_p50_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "specfun.calls": "count", "specfun.elements": "count",
    "specfun.near_one_frac": "fraction", "specfun.self_s": "s",
    "quadrature.calls": "count", "quadrature.integrand_calls": "count",
    "quadrature.integrand_elements": "count", "quadrature.self_s": "s",
    "quadrature.errors": "count",
    "casimir_core.calls": "count", "casimir_core.matsubara_terms": "count",
    "casimir_core.self_s": "s",
    "tilt.calls": "count", "tilt.self_s": "s",
    "reflection.elements": "count", "reflection.self_s": "s",
    "dielectric.eps_elements": "count", "dielectric.kk_elements": "count",
    "dielectric.self_s": "s",
    "cli.calls": "count", "cli.startup_s": "s", "cli.self_s": "s",
    "edge.calls": "count", "edge.self_s": "s",
    "trace.overhead_frac": "fraction",
}


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

_CAL_X = np.linspace(0.1, 5.0, 256)


def calibrate() -> float:
    """Seconds for a fixed interpreter-loop plus small-numpy kernel."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(18000):
        s += i * 0.5
    for _ in range(300):
        np.exp(-_CAL_X) * _CAL_X**1.5 + np.log1p(_CAL_X)
    return time.perf_counter() - t0


_SPAWN_CAL = ("import numpy as np\n"
              "x = np.linspace(0.1, 5.0, 256)\n"
              "for _ in range(300): np.exp(-x) * x**1.5 + np.log1p(x)\n"
              "s = 0.0\n"
              "for i in range(18000): s += i * 0.5\n")


def calibrate_spawn() -> float:
    """Seconds for a fresh interpreter that imports numpy and runs the kernel."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", _SPAWN_CAL], check=True)
    return time.perf_counter() - t0


class HostSpeed:
    """How much slower than nominal the host runs, sampled between ops.

    Shared hosts change speed by 20-40% within seconds and drift for minutes.
    A short kernel doing the same kind of work as the engine (interpreter
    loop, small numpy arrays) runs before the first op and after every op;
    an op's latency is divided by the mean of the two samples around it over
    CAL_NOMINAL_S.  The benchmark pins itself and its children to one CPU,
    so kernel and ops sample the same CPU.  That cancels most host drift
    (on a 2-CPU Xeon, kernel and engine timings correlate at 0.93 over 1.6 s
    windows) and leaves every change in the program's own speed in place.
    The set-up
    probes, which time imports in fresh interpreters, are calibrated with a
    fresh interpreter instead (``spawn=True``): over five runs that cut the
    spread of ``setup_s`` from 15-39% to 4-7%.
    """

    def __init__(self, spawn: bool = False) -> None:
        self.kernel = calibrate_spawn if spawn else calibrate
        self.nominal = SPAWN_CAL_NOMINAL_S if spawn else CAL_NOMINAL_S
        self.cals = [self.kernel()]

    def sample(self) -> None:
        self.cals.append(self.kernel())

    def normalized(self, latencies: list[float]) -> list[float]:
        """Latencies at nominal host speed; the i-th op ran between samples i, i+1."""
        return [t * 2.0 * self.nominal / (self.cals[i] + self.cals[i + 1])
                for i, t in enumerate(latencies)]

    @property
    def cal_s(self) -> float:
        return sum(self.cals)


# ---------------------------------------------------------------------------
# operations and their checks
# ---------------------------------------------------------------------------

class Outcome:
    """One operation: latency, computed value and the verdict of its check."""

    __slots__ = ("key", "latency", "value", "l_used", "trunc", "dev", "ok",
                 "error", "rss_mb")

    def __init__(self, key: str) -> None:
        self.key = key
        self.latency = math.nan
        self.value = math.nan
        self.l_used = 0
        self.trunc = math.nan
        self.dev = math.nan
        self.ok = False
        self.error = ""
        self.rss_mb = 0.0


def check_point(cc, reference: dict, point: wl.Point, out: Outcome) -> None:
    """Finite, within GATE of the reference, and of the closed form if any.

    delta_T is a small difference of two results, so it is gated on its
    absolute deviation (the fraction's own scale); every other value on its
    relative deviation.
    """
    if not math.isfinite(out.value):
        out.error = "non-finite value"
        return
    ref = reference[point.key]["value"]
    if point.op == "delta_t_force":
        out.dev = abs(out.value - ref)
    else:
        out.dev = abs(out.value / ref - 1.0)
    exact = wl.closed_form(cc, point)
    if exact is not None:
        out.dev = max(out.dev, abs(out.value / exact - 1.0))
        if abs(out.value / exact - 1.0) > CLOSED_FORM_TOL:
            out.error = "off the closed form"
            return
    if out.dev > GATE:
        out.error = f"deviation {out.dev:.3e} from reference exceeds {GATE:g}"
        return
    out.ok = True


class LibraryRunner:
    """Library workloads: every operation is one call in this process."""

    def __init__(self, workload: str) -> None:
        import casimir_cyl as cc
        self.cc = cc
        self.models = wl.build_models(cc, wl.workload_models(workload))
        wl.fill_lazy_state(cc)
        self.reference = json.loads((HERE / "reference.json").read_text())["points"]

    def run(self, point: wl.Point) -> Outcome:
        out = Outcome(point.key)
        t0 = time.perf_counter()
        try:
            out.value, out.l_used, out.trunc = wl.run_point(self.cc, self.models, point)
        except Exception as exc:  # a failed operation is counted, not fatal
            out.latency = time.perf_counter() - t0
            out.error = f"{type(exc).__name__}: {exc}"
            return out
        out.latency = time.perf_counter() - t0
        check_point(self.cc, self.reference, point, out)
        return out

    def peak_rss_mb(self, outcomes) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CliRunner:
    """CLI workload: every operation is one ``casimir_cyl.cli`` subprocess."""

    def __init__(self, workload: str) -> None:
        self.work = WORK / "cli"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        (self.work / wl.OPTICAL_FILE).write_text(wl.optical_file_text())
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.traced_dumps: list[Path] = []
        self.trace_dir: Path | None = None

    def run(self, cmd: wl.CliCommand) -> Outcome:
        out = Outcome(cmd.key)
        stdout_path = self.work / "stdout.txt"
        if self.trace_dir is None:
            argv = [sys.executable, "-m", "casimir_cyl.cli", *cmd.argv]
        else:
            dump = self.trace_dir / f"{len(self.traced_dumps)}.json.gz"
            self.traced_dumps.append(dump)
            argv = [sys.executable, str(HERE / "cli_shim.py"), str(dump), *cmd.argv]
        with open(stdout_path, "wb") as sink:
            t0 = time.perf_counter()
            env = dict(self.env, BENCH_SPAWN_T=repr(t0))
            proc = subprocess.Popen(argv, cwd=self.work, env=env, stdout=sink,
                                    stderr=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            out.latency = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.rss_mb = usage.ru_maxrss / 1024.0
        got = stdout_path.read_bytes()
        out.value = int(hashlib.sha256(got).hexdigest()[:12], 16)
        if proc.returncode != 0:
            out.error = f"exit code {proc.returncode}"
            return out
        if got != (HERE / "golden" / f"{cmd.name}.out").read_bytes():
            out.error = "stdout differs from golden"
            return out
        if cmd.plot and ((self.work / cmd.plot).read_bytes()
                         != (HERE / "golden" / f"{cmd.name}.svg").read_bytes()):
            out.error = "plot differs from golden"
            return out
        out.dev = 0.0
        out.ok = True
        return out

    def peak_rss_mb(self, outcomes) -> float:
        return max(o.rss_mb for o in outcomes)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def measure_setup(workload: str, speed: HostSpeed) -> list[float]:
    """Set-up time in SETUP_PROBES fresh interpreters."""
    cwd = WORK / "cli"
    cwd.mkdir(parents=True, exist_ok=True)
    (cwd / wl.OPTICAL_FILE).write_text(wl.optical_file_text())
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload],
                              cwd=cwd, capture_output=True, text=True, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
        speed.sample()
    return times


def _run_round(runner, items, speed: HostSpeed) -> list[Outcome]:
    outcomes = []
    for item in items:
        outcomes.append(runner.run(item))
        speed.sample()
    return outcomes


def run_measured(workload: str, seed: int, seconds: float) -> dict:
    setup_speed = HostSpeed(spawn=True)
    setup = measure_setup(workload, setup_speed)
    runner = (CliRunner if workload == "cli_batch" else LibraryRunner)(workload)
    warm = wl.make_round(workload, seed, -1)
    warm_out: list[Outcome] = []
    t0 = time.perf_counter()
    for item in warm:
        warm_out.append(runner.run(item))
        calibrate()
        if time.perf_counter() - t0 >= WARMUP_S:
            break
    speed = HostSpeed()
    outcomes: list[Outcome] = []
    rounds = 0
    t0 = time.perf_counter()
    while True:
        outcomes += _run_round(runner, wl.make_round(workload, seed, rounds), speed)
        rounds += 1
        if (time.perf_counter() - t0 >= seconds
                and rounds >= wl.MIN_ROUNDS.get(workload, 1)):
            break
    wall = time.perf_counter() - t0 - speed.cal_s
    raw_lat = [o.latency for o in outcomes]
    lat = speed.normalized(raw_lat)
    norm_setup = setup_speed.normalized(setup)
    metrics = {
        "ops_per_s": len(lat) / sum(lat),
        "op_latency_p50_s": statistics.median(lat),
        "peak_rss_mb": runner.peak_rss_mb(outcomes + warm_out),
        "setup_s": statistics.median(norm_setup),
    }
    raw = {"ops_per_s": len(raw_lat) / wall, "op_latency_p50_s": statistics.median(raw_lat),
           "setup_s": statistics.median(setup)}
    p90 = (statistics.quantiles(lat, n=10)[-1] if len(lat) >= P90_MIN_SAMPLES else None)
    info = {"rounds": rounds, "samples": len(outcomes), "wall_s": wall,
            "host_slowdown": sum(raw_lat) / sum(lat), "raw": raw,
            "setup_runs_s": setup, "op_latency_p90_s": p90,
            "latencies_s": raw_lat, "calibration_s": speed.cals}
    return _result(workload, seed, 0, metrics, outcomes + warm_out, info)


def _per_layer(dumps: list[dict], overhead: float) -> dict:
    counts = dict.fromkeys(tr.COUNTERS, 0)
    self_s = dict.fromkeys(tr.LAYERS, 0.0)
    startup = 0.0
    for d in dumps:
        for k, v in d["counts"].items():
            counts[k] += v
        for k, v in tr.self_times(d["layer"], d["start"], d["end"], d["parent"]).items():
            self_s[k] += v
        startup += d["extra"].get("startup_s", 0.0)
    m = {k: counts[k] for k in PER_LAYER_UNITS if k in counts}
    m["specfun.near_one_frac"] = (counts["specfun.near_one"] / counts["specfun.elements"]
                                  if counts["specfun.elements"] else 0.0)
    for layer in tr.LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    m["cli.startup_s"] = startup
    m["trace.overhead_frac"] = overhead
    return {k: m[k] for k in PER_LAYER_UNITS}


def run_traced(workload: str, seed: int) -> dict:
    runner = (CliRunner if workload == "cli_batch" else LibraryRunner)(workload)
    items = wl.make_round(workload, seed, 0)
    warm = [runner.run(wl.make_round(workload, seed, -1)[0])]
    plain_speed = HostSpeed()
    plain = _run_round(runner, items, plain_speed)
    trace_dir = WORK / "trace"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    traced_speed = HostSpeed()
    if workload == "cli_batch":
        runner.trace_dir = trace_dir
        traced = _run_round(runner, items, traced_speed)
        paths = runner.traced_dumps
    else:
        tracer = tr.Tracer()
        tracer.install()
        try:
            traced = _run_round(runner, items, traced_speed)
        finally:
            tracer.remove()
        paths = [trace_dir / "spans.json.gz"]
        tracer.dump(str(paths[0]))
    untraced_wall = sum(plain_speed.normalized([o.latency for o in plain]))
    traced_wall = sum(traced_speed.normalized([o.latency for o in traced]))
    overhead = traced_wall / untraced_wall - 1.0
    metrics = _per_layer([tr.load(str(p)) for p in paths], overhead)
    info = {"samples": len(items), "untraced_wall_s": untraced_wall,
            "traced_wall_s": traced_wall}
    return _result(workload, seed, 1, metrics, warm + plain + traced, info)


def _result(workload, seed, trace, metrics, outcomes, info) -> dict:
    failed = [o for o in outcomes if not o.ok]
    devs = [o.dev for o in outcomes if o.ok]
    info.update(failed_frac=len(failed) / len(outcomes),
                max_rel_dev=max(devs) if devs else math.nan,
                over_10x_rel_tol=sorted({o.key for o in outcomes
                                         if o.ok and o.dev > HONEST_DEV}),
                failures=sorted({f"{o.key}: {o.error}" for o in failed})[:20])
    return {"workload": workload, "seed": seed, "trace": trace,
            "result": {"correct": not failed, "attempted": len(outcomes),
                       "failed": len(failed),
                       "metrics": {k: {"value": v, "unit": (END_TO_END_UNITS | PER_LAYER_UNITS)[k]}
                                   for k, v in metrics.items()}},
            "info": info,
            "points": {o.key: [o.value, o.l_used, o.trunc, o.dev]
                       for o in outcomes if o.ok}}


def print_summary(record: dict) -> None:
    info = record["info"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"samples={info['samples']}")
    for name, m in record["result"]["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if record["trace"] == 0:
        p90 = info["op_latency_p90_s"]
        print("op_latency_p90_s = " + (f"{p90:.6g} s" if p90 is not None else
                                       f"n/a ({info['samples']} < {P90_MIN_SAMPLES} samples)"))
        print(f"host_slowdown = {info['host_slowdown']:.4g}; unnormalized: " + ", ".join(
                  f"{k} = {v:.6g}" for k, v in info["raw"].items()))
    print(f"failed_frac = {info['failed_frac']:.6g} fraction")
    print(f"max_rel_dev = {info['max_rel_dev']:.3e} (rel_tol {wl.REL_TOL:g}, "
          f"gate {GATE:g})")
    over = info["over_10x_rel_tol"]
    print(f"over_10x_rel_tol = {len(over)} distinct points"
          + (f": {', '.join(over)}" if over else ""))
    for line in info["failures"]:
        print(f"FAILED {line}")


# ---------------------------------------------------------------------------
# all workloads, and the compare mode
# ---------------------------------------------------------------------------

def run_all(seed: int, seconds: float, trace: int, repeat: int, out: str | None) -> bool:
    runs = []
    ok = True
    tmp = WORK / "all.json"
    for workload in wl.WORKLOADS:
        for r in range(repeat):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed + r), "--seconds", str(seconds),
                   "--trace", str(trace), "--out", str(tmp)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                ok = False
                continue
            run = json.loads(tmp.read_text())["runs"][0]
            ok = ok and run["result"]["correct"]
            runs.append(run)
    if out:
        Path(out).write_text(json.dumps({"runs": runs}) + "\n")
    return ok


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare(path_a: str, path_b: str) -> None:
    """Per-workload, per-metric medians and quartiles, and the value drift."""
    runs_a = json.loads(Path(path_a).read_text())["runs"]
    runs_b = json.loads(Path(path_b).read_text())["runs"]
    groups = sorted({(r["workload"], r["trace"]) for r in runs_a + runs_b})
    print(f"{'workload':18} {'metric':30} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'B/A-1':>8}")
    for workload, trace in groups:
        side = [[r for r in runs if r["workload"] == workload and r["trace"] == trace]
                for runs in (runs_a, runs_b)]
        names = list(dict.fromkeys(k for runs in side for r in runs
                                   for k in r["result"]["metrics"]))
        for name in names:
            cells = []
            meds = []
            for runs in side:
                vals = [r["result"]["metrics"][name]["value"] for r in runs
                        if name in r["result"]["metrics"]]
                if not vals:
                    cells.append("-")
                    meds.append(math.nan)
                    continue
                q1, med, q3 = _quartiles(vals)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(vals)}")
                meds.append(med)
            change = meds[1] / meds[0] - 1.0 if meds[0] else math.nan
            print(f"{workload:18} {name:30} {cells[0]:>34} {cells[1]:>34} {change:>+8.3f}")
    values = [{}, {}]
    for runs, vals in zip((runs_a, runs_b), values):
        for r in runs:
            for key, (value, *_rest) in r["points"].items():
                vals[key] = value
    common = sorted(set(values[0]) & set(values[1]))
    worst, worst_key, cli_diff = 0.0, None, 0
    for key in common:
        a, b = values[0][key], values[1][key]
        if key.startswith("cli|"):
            cli_diff += a != b
            continue
        change = abs(b / a - 1.0) if a else abs(b - a)
        if change > worst:
            worst, worst_key = change, key
    print(f"computed values in both files: {len(common)}; largest relative change "
          f"{worst:.3e}" + (f" at {worst_key}" if worst_key else ""))
    print(f"CLI outputs that differ: {cli_diff}")


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="with --all: runs per workload, seeds seed..seed+K-1")
    parser.add_argument("--out", help="write the full run record(s) here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if not (SRC / "casimir_cyl" / "__init__.py").is_file():
        print(f"error: no casimir_cyl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.all:
        return 0 if run_all(args.seed, args.seconds, args.trace, args.repeat,
                            args.out) else 1
    if args.workload is None:
        parser.error("give --workload, --all or --compare")
    # One CPU for this process and every child it starts, so the calibration
    # kernel samples the speed of the CPU the ops run on (HostSpeed).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.trace:
        record = run_traced(args.workload, args.seed)
    else:
        record = run_measured(args.workload, args.seed, args.seconds)
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": [record]}) + "\n")
    print_summary(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
