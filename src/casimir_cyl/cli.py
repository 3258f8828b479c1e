"""Command-line front end: single evaluations, sweeps, tables and reports.

Exit codes: 0 on success, 2 for configuration or input errors, 3 for
numerical convergence failures.  All numbers are serialized with 12
significant digits, so identical configurations produce byte-identical
output.  Units on this surface: nm for the separation, um for radius and
length, K for temperature, eV for model parameters.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .casimir_core import (Geometry, ThermalState, cylinder_force,
                           cylinder_force_gradient, high_temperature_force,
                           high_temperature_gradient, thermal_correction)
from .dielectric import (Dielectric, Drude, IdealMetal, Oscillator,
                         OpticalTableError, PlasmaOscillators, Tabulated,
                         eps_imag_axis, load_optical_table,
                         zero_frequency_character)
from .edge import (EdgeParams, edge_corrected_force, overhang_force,
                   total_pfa_error)
from .quadrature import ConvergenceError, QuadratureSpec
from .tilt import TiltParams, kappa, kappa_nm, tilted_force, tilted_gradient

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3

_FMT = "{:.11e}"  # 12 significant digits


class ConfigError(ValueError):
    """Bad configuration file or option combination."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    """Resolved run parameters (CLI flags already merged over the file)."""

    a_values_nm: np.ndarray
    R_um: float = 100.0
    L_um: float = 100.0
    T: float = 300.0
    model_name: str = "drude"
    omega_p: float = 9.0
    gamma: float = 0.035
    eps0: float | None = None
    oscillators: tuple[Oscillator, ...] = ()
    optical_data: str | None = None
    theta: float | None = None
    a_theta: float | None = None
    rel_tol: float = 1e-9
    out_format: str = "csv"
    plot: str | None = None
    out: str | None = None
    which: str = "force"
    workers: int = 1
    L1_um: tuple[float, ...] = (25.0, 50.0)
    path: str | None = None  # the file kk-ingest reads
    echo: list[str] = field(default_factory=list)

    @property
    def geometry_for(self):
        def make(a_nm: float) -> Geometry:
            return Geometry(a=a_nm * 1e-9, R=self.R_um * 1e-6, L=self.L_um * 1e-6)
        return make

    def quad(self) -> QuadratureSpec:
        return QuadratureSpec(rel_tol=self.rel_tol)

    def model(self):
        name = self.model_name
        if name == "ideal":
            return IdealMetal()
        if name == "drude":
            return Drude(omega_p=self.omega_p, gamma=self.gamma)
        if name == "plasma":
            return PlasmaOscillators(omega_p=self.omega_p,
                                     oscillators=self.oscillators)
        if name == "dielectric":
            if self.eps0 is None:
                raise ConfigError("model 'dielectric' requires eps0")
            return Dielectric(eps0=self.eps0)
        if name == "tabulated":
            if self.optical_data is None:
                raise ConfigError("model 'tabulated' requires optical_data")
            table = load_optical_table(self.optical_data)
            return Tabulated(table=table, tail=Drude(self.omega_p, self.gamma))
        raise ConfigError(f"unknown model '{name}'")

    def tilt_for(self, geometry: Geometry) -> TiltParams | None:
        if self.theta is not None and self.a_theta is not None:
            raise ConfigError("give either theta or a_theta, not both")
        if self.theta is not None:
            return TiltParams.from_angle(self.theta, geometry)
        if self.a_theta is not None:
            return TiltParams.from_a_theta(self.a_theta, geometry)
        return None


def parse_sweep(text: str) -> np.ndarray:
    """Parse 'MIN:MAX:N[:log]' (nm) into an ascending grid with N >= 2."""
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ConfigError(f"bad sweep spec '{text}', want MIN:MAX:N[:log]")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"non-numeric sweep spec '{text}'")
    if not (hi > lo and n >= 2):
        raise ConfigError("sweep needs min < max and at least 2 points")
    if len(parts) == 4:
        if parts[3] != "log":
            raise ConfigError(f"unknown sweep modifier '{parts[3]}'")
        if lo <= 0:
            raise ConfigError("log sweep needs positive endpoints")
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


def _parse_oscillators(text: str) -> tuple[Oscillator, ...]:
    """Semicolon-separated triples 'g:omega:gamma' in eV^2, eV, eV."""
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        fields = chunk.split(":")
        if len(fields) != 3:
            raise ConfigError(f"bad oscillator spec '{chunk}', want g:omega:gamma")
        out.append(Oscillator(g=float(fields[0]), omega=float(fields[1]),
                              gamma=float(fields[2])))
    return tuple(out)


def read_config_file(path: str) -> dict[str, str]:
    """Flat 'key = value' document; '#' comments and blank lines ignored."""
    keys = set(vars(_option_parser().parse_args([]))) - {"config"}  # option dests
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in keys:
                raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
            values[key] = val.strip()
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge config file and flags (flags win) into a RunConfig."""
    file_vals = read_config_file(args.config) if args.config else {}

    def pick(name: str, flag_val):
        if flag_val is not None:
            return flag_val
        return file_vals.get(name)

    a = pick("a", args.a)
    sweep = pick("a_sweep", args.a_sweep)
    if a is not None and sweep is not None:
        raise ConfigError("give either a or a-sweep, not both")
    if a is not None:
        a_values = np.array([float(a)])
    elif sweep is not None:
        a_values = parse_sweep(str(sweep))
    else:
        a_values = np.array([100.0])

    def fnum(name, flag_val, default):
        v = pick(name, flag_val)
        return default if v is None else float(v)

    osc_text = pick("oscillators", args.oscillators)
    theta = pick("theta", args.theta)
    a_theta = pick("a_theta", args.a_theta)
    cfg = RunConfig(
        a_values_nm=a_values,
        R_um=fnum("R", args.R, 100.0),
        L_um=fnum("L", args.L, 100.0),
        T=fnum("T", args.T, 300.0),
        model_name=str(pick("model", args.model) or "drude"),
        omega_p=fnum("omega_p", args.omega_p, 9.0),
        gamma=fnum("gamma", args.gamma, 0.035),
        eps0=(lambda v: None if v is None else float(v))(pick("eps0", args.eps0)),
        oscillators=_parse_oscillators(osc_text) if osc_text else (),
        optical_data=pick("optical_data", args.optical_data),
        theta=None if theta is None else float(theta),
        a_theta=None if a_theta is None else float(a_theta),
        rel_tol=fnum("rel_tol", args.rel_tol, 1e-9),
        out_format=str(pick("format", args.format) or "csv"),
        plot=pick("plot", args.plot),
        out=pick("out", args.out),
        which=("gradient" if args.command == "gradient"
               else str(pick("which", args.which) or "force")),
        workers=int(fnum("workers", args.workers, 1)),
        L1_um=tuple(float(x) for x in str(pick("L1", args.L1) or "25,50").split(",")),
        path=getattr(args, "path", None),
    )
    if cfg.out_format not in ("csv", "json"):
        raise ConfigError(f"unknown format '{cfg.out_format}'")
    if cfg.which not in ("force", "gradient"):
        raise ConfigError(f"which must be force or gradient, not '{cfg.which}'")
    if not (math.isfinite(cfg.T) and cfg.T >= 0):
        raise ConfigError("temperature must be finite and nonnegative")
    cfg.echo = [
        f"model = {cfg.model_name} (omega_p = {cfg.omega_p} eV, gamma = {cfg.gamma} eV"
        + (f", eps0 = {cfg.eps0}" if cfg.eps0 is not None else "") + ")",
        f"R_um = {cfg.R_um}  L_um = {cfg.L_um}  T_K = {cfg.T}  rel_tol = {cfg.rel_tol}",
        (f"a_sweep_nm = {sweep}" if sweep is not None
         else f"a_nm = {float(a_values[0]):g}"),
    ]
    if cfg.theta is not None:
        cfg.echo.append(f"theta_rad = {cfg.theta}")
    if cfg.a_theta is not None:
        cfg.echo.append(f"a_theta = {cfg.a_theta}")
    return cfg


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _num(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return _FMT.format(float(x))


def emit_table(cfg: RunConfig, command: str, header: Sequence[str],
               rows: Sequence[Sequence], stream) -> None:
    if cfg.out_format == "json":
        payload = {
            "command": command,
            "config": cfg.echo,
            "columns": list(header),
            "rows": [[(int(x) if isinstance(x, (int, np.integer)) else float(x))
                      for x in row] for row in rows],
        }
        stream.write(json.dumps(payload, indent=2) + "\n")
        return
    stream.write(f"# casimir-cyl {command}\n")
    for line in cfg.echo:
        stream.write(f"# {line}\n")
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(_num(x) for x in row) + "\n")


def write_svg_plot(path: str, x: np.ndarray, series: list[np.ndarray],
                   labels: list[str], xlabel: str, ylabel: str,
                   title: str) -> None:
    """Minimal deterministic SVG line chart: axes, ticks, one polyline/series."""
    width, height = 640, 480
    ml, mr, mt, mb = 70, 20, 30, 50
    pw, ph = width - ml - mr, height - mt - mb
    xmin, xmax = float(np.min(x)), float(np.max(x))
    ymin = min(float(np.min(s)) for s in series)
    ymax = max(float(np.max(s)) for s in series)
    if xmax == xmin:
        xmax = xmin + 1.0
    if ymax == ymin:
        ymax = ymin + 1.0
    pad = 0.05 * (ymax - ymin)
    ymin, ymax = ymin - pad, ymax + pad

    def px(v):
        return ml + (v - xmin) / (xmax - xmin) * pw

    def py(v):
        return mt + (ymax - v) / (ymax - ymin) * ph

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.1f}" y="18" text-anchor="middle" '
        f'font-size="14">{title}</text>',
        f'<line x1="{ml}" y1="{mt+ph}" x2="{ml+pw}" y2="{mt+ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt+ph}" stroke="black"/>',
    ]
    for i in range(5):
        xv = xmin + i * (xmax - xmin) / 4
        yv = ymin + i * (ymax - ymin) / 4
        parts.append(f'<line x1="{px(xv):.1f}" y1="{mt+ph}" x2="{px(xv):.1f}" '
                     f'y2="{mt+ph+5}" stroke="black"/>')
        parts.append(f'<text x="{px(xv):.1f}" y="{mt+ph+18}" text-anchor="middle" '
                     f'font-size="11">{xv:.4g}</text>')
        parts.append(f'<line x1="{ml-5}" y1="{py(yv):.1f}" x2="{ml}" '
                     f'y2="{py(yv):.1f}" stroke="black"/>')
        parts.append(f'<text x="{ml-8}" y="{py(yv)+4:.1f}" text-anchor="end" '
                     f'font-size="11">{yv:.4g}</text>')
    parts.append(f'<text x="{ml+pw/2:.1f}" y="{height-10}" text-anchor="middle" '
                 f'font-size="12">{xlabel}</text>')
    parts.append(f'<text x="16" y="{mt+ph/2:.1f}" text-anchor="middle" '
                 f'font-size="12" transform="rotate(-90 16 {mt+ph/2:.1f})">'
                 f'{ylabel}</text>')
    for k, (s, lab) in enumerate(zip(series, labels)):
        pts = " ".join(f"{px(float(xi)):.2f},{py(float(yi)):.2f}"
                       for xi, yi in zip(x, s))
        color = colors[k % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{ml+pw-6}" y="{mt+16+14*k}" text-anchor="end" '
                     f'font-size="11" fill="{color}">{lab}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def _map_sweep(cfg: RunConfig, fn):
    """Evaluate fn(a_nm) over the sweep, concurrently but ordered ascending."""
    values = [float(v) for v in cfg.a_values_nm]
    if cfg.workers <= 1:
        return [fn(v) for v in values]
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        return list(pool.map(fn, values))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_force(cfg: RunConfig, stream) -> None:
    model = cfg.model()
    quad = cfg.quad()
    grad = cfg.which == "gradient"
    op = cylinder_force_gradient if grad else cylinder_force
    top = tilted_gradient if grad else tilted_force

    def run(a_nm: float):
        geom = cfg.geometry_for(a_nm)
        thermal = ThermalState.at(cfg.T, geom)
        tilt = cfg.tilt_for(geom)
        if tilt is not None:
            res = top(geom, thermal, model, tilt, quad)
        else:
            res = op(geom, thermal, model, quad)
        return (a_nm, res.value, res.per_length, res.l_used,
                res.truncation_estimate)

    rows = _map_sweep(cfg, run)
    unit = "N_per_m" if grad else "N"
    header = ["a_nm", f"value_{unit}", f"per_length_{unit}_per_m",
              "l_used", "truncation_estimate"]
    emit_table(cfg, cfg.which, header, rows, stream)
    if cfg.plot:
        x = np.array([r[0] for r in rows])
        y = np.array([r[1] for r in rows])
        write_svg_plot(cfg.plot, x, [y], [cfg.which], "a (nm)",
                       f"{cfg.which} ({unit.replace('_', ' ')})",
                       f"Casimir {cfg.which}, {cfg.model_name}")


def cmd_thermal_correction(cfg: RunConfig, stream) -> None:
    model = cfg.model()
    quad = cfg.quad()

    def run(a_nm: float):
        geom = cfg.geometry_for(a_nm)
        delta = thermal_correction(geom, model, quad, which=cfg.which,
                                   temperature=cfg.T)
        return (a_nm, delta)

    rows = _map_sweep(cfg, run)
    header = ["a_nm", f"delta_T_{cfg.which}_fraction"]
    emit_table(cfg, "thermal-correction", header, rows, stream)
    if cfg.plot:
        x = np.array([r[0] for r in rows])
        y = np.array([r[1] for r in rows])
        write_svg_plot(cfg.plot, x, [y], [f"delta_T ({cfg.which})"], "a (nm)",
                       "relative thermal correction",
                       f"Thermal correction, {cfg.model_name}")


_TABLE1_A_NM = (100.0, 150.0, 200.0, 300.0, 400.0, 500.0)
_TABLE1_ATHETA = (0.01, 0.05, 0.1, 0.5)


def cmd_table1(cfg: RunConfig, stream) -> None:
    """Nonmultiplicative tilt factors on the reference grid, plus kappa row."""
    model = cfg.model()
    quad = cfg.quad()
    rows = []
    for a_nm in _TABLE1_A_NM:
        geom = cfg.geometry_for(a_nm)
        thermal = ThermalState.at(cfg.T, geom)
        vals = []
        for a_theta in _TABLE1_ATHETA:
            tilt = TiltParams.from_a_theta(a_theta, geom)
            vals.append(kappa_nm(geom, thermal, model, tilt, quad))
        rows.append((a_nm, *vals))
    if cfg.out_format == "json":
        emit_table(cfg, "table1",
                   ["a_nm"] + [f"A_theta_{A}" for A in _TABLE1_ATHETA],
                   rows, stream)
        return
    stream.write(f"# casimir-cyl table1 (kappa_nm grid, {cfg.model_name}, "
                 f"T = {cfg.T} K)\n")
    head = "a_nm".ljust(10) + "".join(f"A={A:<10}" for A in _TABLE1_ATHETA)
    stream.write(head.rstrip() + "\n")
    for a_nm, *vals in rows:
        stream.write(f"{a_nm:<10.0f}" + "".join(f"{v:<12.5f}" for v in vals).rstrip()
                     + "\n")
    stream.write("kappa     " + "".join(f"{kappa(A):<12.5f}"
                                        for A in _TABLE1_ATHETA).rstrip() + "\n")


def cmd_edge_error(cfg: RunConfig, stream) -> None:
    """Total PFA+edge error budget and overhang contributions."""
    rows = []
    for a_nm in cfg.a_values_nm:
        geom = cfg.geometry_for(float(a_nm))
        base = edge_corrected_force(geom)
        for which in ("force", "gradient"):
            rows.append((float(a_nm), which,
                         100.0 * total_pfa_error(geom, which)))
        for L1_um in cfg.L1_um:
            edge = EdgeParams(L1=L1_um * 1e-6, R=geom.R)
            extra = overhang_force(geom, edge) / base - 1.0
            rows.append((float(a_nm), f"overhang_L1_{L1_um:g}um",
                         100.0 * abs(extra)))
    if cfg.out_format == "json":
        payload = {"command": "edge-error", "config": cfg.echo,
                   "rows": [[r[0], r[1], r[2]] for r in rows]}
        stream.write(json.dumps(payload, indent=2) + "\n")
        return
    stream.write("# casimir-cyl edge-error\n")
    for line in cfg.echo:
        stream.write(f"# {line}\n")
    stream.write("a_nm,quantity,error_percent\n")
    for a_nm, which, err in rows:
        stream.write(f"{a_nm:.6g},{which},{_FMT.format(err)}\n")


def cmd_kk_ingest(cfg: RunConfig, stream) -> None:
    """Validate an optical-data file and report the resulting model."""
    table = load_optical_table(cfg.path)
    tail = Drude(cfg.omega_p, cfg.gamma)
    model = Tabulated(table=table, tail=tail)
    stream.write("# casimir-cyl kk-ingest\n")
    stream.write(f"# file = {cfg.path}\n")
    stream.write(f"# rows = {table.omega.size}\n")
    stream.write(f"# omega_range_eV = [{table.omega_min:g}, {table.omega_max:g}]\n")
    stream.write(f"# tail: omega_p = {tail.omega_p} eV, gamma = {tail.gamma} eV\n")
    stream.write("xi_eV,eps_i_xi\n")
    for xi in (0.1, 0.5, 1.0, 5.0, 10.0):
        stream.write(f"{xi:g},{_FMT.format(eps_imag_axis(model, xi))}\n")


def cmd_asymptote(cfg: RunConfig, stream) -> None:
    """High-temperature closed-form force and gradient for the model."""
    model = cfg.model()
    rows = []
    for a_nm in cfg.a_values_nm:
        geom = cfg.geometry_for(float(a_nm))
        behavior = zero_frequency_character(model, geom.a)
        rows.append((float(a_nm),
                     high_temperature_force(geom, cfg.T, behavior),
                     high_temperature_gradient(geom, cfg.T, behavior)))
    emit_table(cfg, "asymptote",
               ["a_nm", "force_N", "gradient_N_per_m"], rows, stream)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "force": (cmd_force, "Casimir force over a separation or sweep"),
    "gradient": (cmd_force, "force gradient over a separation or sweep"),
    "thermal-correction": (cmd_thermal_correction, "relative thermal correction delta_T"),
    "table1": (cmd_table1, "nonmultiplicative tilt-factor grid"),
    "edge-error": (cmd_edge_error, "PFA + finite-length error budget"),
    "kk-ingest": (cmd_kk_ingest, "validate optical data and report eps(i xi)"),
    "asymptote": (cmd_asymptote, "high-temperature closed forms"),
}


def _option_parser() -> argparse.ArgumentParser:
    """The options every command shares; a config file may set the same keys."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", help="flat key = value configuration file")
    p.add_argument("--a", help="separation in nm")
    p.add_argument("--a-sweep", dest="a_sweep",
                   help="separation sweep MIN:MAX:N[:log] in nm")
    p.add_argument("--R", help="cylinder radius in um")
    p.add_argument("--L", help="cylinder length in um")
    p.add_argument("--T", help="temperature in K")
    p.add_argument("--model",
                   choices=["ideal", "drude", "plasma", "dielectric",
                            "tabulated"])
    p.add_argument("--omega-p", dest="omega_p", help="plasma frequency, eV")
    p.add_argument("--gamma", help="relaxation parameter, eV")
    p.add_argument("--eps0", help="static permittivity (dielectric model)")
    p.add_argument("--oscillators",
                   help="semicolon-separated g:omega:gamma triples (eV)")
    p.add_argument("--optical-data", dest="optical_data",
                   help="optical data file (tabulated model)")
    p.add_argument("--theta", help="tilt angle, rad")
    p.add_argument("--a-theta", dest="a_theta",
                   help="dimensionless tilt parameter theta L/(2a)")
    p.add_argument("--rel-tol", dest="rel_tol", help="quadrature tolerance")
    p.add_argument("--format", choices=["csv", "json"])
    p.add_argument("--plot", help="write an SVG line chart here")
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--which", choices=["force", "gradient"])
    p.add_argument("--workers", help="concurrent sweep points "
                   "(force, gradient and thermal-correction)")
    p.add_argument("--L1", help="overhang distances in um, comma separated")
    return p


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casimir-cyl",
        description="Thermal Casimir force for a coated cylinder above a plate")
    sub = parser.add_subparsers(dest="command", required=True)
    options = _option_parser()
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, parents=[options])
        if name == "kk-ingest":
            p.add_argument("path", help="optical data file to ingest")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
    except (ConfigError, OpticalTableError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    stream = sys.stdout
    close_stream = False
    try:
        if cfg.out:
            stream = open(cfg.out, "w", encoding="utf-8")
            close_stream = True
        _COMMANDS[args.command][0](cfg, stream)
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (ConfigError, OpticalTableError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        if close_stream:
            stream.close()
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
