"""Command-line front end: single evaluations, sweeps, tables and reports.

Exit codes: 0 on success, 2 for configuration or input errors, 3 for
numerical convergence failures.  The csv and text tables write each
number with 12 significant digits; JSON writes each float's shortest
``repr``, every bit of it.  Identical configurations produce byte-identical
output.  Units on this surface: nm for the separation, um for radius and
length, K for temperature, eV for model parameters.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import sys
from typing import Sequence

import numpy as np

from .casimir_core import (Geometry, ThermalState, cylinder_force,
                           cylinder_force_gradient, high_temperature_force,
                           high_temperature_gradient, thermal_correction)
from .dielectric import (Dielectric, Drude, IdealMetal, Oscillator,
                         PlasmaOscillators, Tabulated, eps_imag_axis,
                         load_optical_table, zero_frequency_character)
from .edge import (EdgeParams, edge_corrected_force, overhang_force,
                   total_pfa_error)
from .quadrature import ConvergenceError, QuadratureSpec
from .tilt import TiltParams, kappa, tilted_force, tilted_gradient
from .tilt import kappa_nm  # noqa: F401  (unused; bench/tracer.py wraps it here)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3

_FMT = "{:.11e}"  # 12 significant digits


class ConfigError(ValueError):
    """Bad configuration file or option combination."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def parse_sweep(text: str) -> np.ndarray:
    """Parse 'MIN:MAX:N[:log]' (nm) into an ascending grid with N >= 2."""
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ConfigError(f"bad sweep spec '{text}', want MIN:MAX:N[:log]")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"non-numeric sweep spec '{text}'")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"sweep spec '{text}' needs a finite MIN and MAX")
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
        try:  # a count other than three fails the unpacking
            g, omega, gamma = (float(x) for x in chunk.split(":"))
        except ValueError:
            raise ConfigError(f"bad oscillator spec '{chunk}', want g:omega:gamma") from None
        out.append(Oscillator(g=g, omega=omega, gamma=gamma))
    return tuple(out)


def _float_list(text: str) -> tuple[float, ...]:
    """Comma-separated floats."""
    return tuple(float(x) for x in text.split(","))


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


# options of which at most one may be set; a flag for one also drops a config
# file's value for the other, so that flags win over the file
_EXCLUSIVE_PAIRS = (("a", "a_sweep"), ("theta", "a_theta"))


def _file_defaults(flags: argparse.Namespace) -> dict[str, str]:
    """The config file's values, less those a flag's pair partner overrides;
    ``flags`` are the options parsed without the file."""
    values = read_config_file(flags.config)
    for pair in _EXCLUSIVE_PAIRS:
        for given, other in (pair, pair[::-1]):
            if getattr(flags, given) is not None:
                values.pop(other, None)
    return values


def build_config(args: argparse.Namespace) -> None:
    """Check what crosses options, then add the sweep grid and echo lines.

    argparse has typed every value, config-file ones included, but checks
    choices on flags only, so format and which from a file are checked here.
    """
    if args.a is not None and args.a_sweep is not None:
        raise ConfigError("give either a or a-sweep, not both")
    tilted = args.theta is not None or args.a_theta is not None
    if tilted and args.command not in ("force", "gradient"):
        raise ConfigError(f"{args.command} takes no theta or a-theta")
    if args.theta is not None and args.a_theta is not None:
        raise ConfigError("give either theta or a_theta, not both")
    if (args.a is not None or args.a_sweep is not None) and args.command in (
            "table1", "kk-ingest"):
        raise ConfigError(f"{args.command} takes no a or a-sweep")
    if args.plot and args.command not in ("force", "gradient", "thermal-correction"):
        raise ConfigError(f"{args.command} writes no plot")
    if args.command == "kk-ingest" and args.format == "json":
        raise ConfigError("kk-ingest writes text only, no json")
    if args.a_sweep is not None:
        args.a_values_nm = parse_sweep(args.a_sweep)
    else:
        args.a_values_nm = np.array([100.0 if args.a is None else args.a])
    if args.command == "gradient":
        args.which = "gradient"
    if args.format not in ("csv", "json"):
        raise ConfigError(f"unknown format '{args.format}'")
    if args.which not in ("force", "gradient"):
        raise ConfigError(f"which must be force or gradient, not '{args.which}'")
    if not (math.isfinite(args.T) and args.T >= 0):
        raise ConfigError("temperature must be finite and nonnegative")
    args.oscillators = _parse_oscillators(args.oscillators)
    args.echo = [
        f"model = {args.model} (omega_p = {args.omega_p} eV, gamma = {args.gamma} eV"
        + (f", eps0 = {args.eps0}" if args.eps0 is not None else "") + ")",
        f"R_um = {args.R}  L_um = {args.L}  T_K = {args.T}  rel_tol = {args.rel_tol}",
        (f"a_sweep_nm = {args.a_sweep}" if args.a_sweep is not None
         else f"a_nm = {float(args.a_values_nm[0]):g}"),
    ]
    if args.theta is not None:
        args.echo.append(f"theta_rad = {args.theta}")
    if args.a_theta is not None:
        args.echo.append(f"a_theta = {args.a_theta}")


def _geometry(args: argparse.Namespace, a_nm: float) -> Geometry:
    return Geometry(a=a_nm * 1e-9, R=args.R * 1e-6, L=args.L * 1e-6)


def _model(args: argparse.Namespace):
    name = args.model
    if name == "ideal":
        return IdealMetal()
    if name == "drude":
        return Drude(omega_p=args.omega_p, gamma=args.gamma)
    if name == "plasma":
        return PlasmaOscillators(omega_p=args.omega_p,
                                 oscillators=args.oscillators)
    if name == "dielectric":
        if args.eps0 is None:
            raise ConfigError("model 'dielectric' requires eps0")
        return Dielectric(eps0=args.eps0)
    if name == "tabulated":
        if args.optical_data is None:
            raise ConfigError("model 'tabulated' requires optical_data")
        table = load_optical_table(args.optical_data)
        return Tabulated(table=table, tail=Drude(args.omega_p, args.gamma))
    raise ConfigError(f"unknown model '{name}'")


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _num(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return _FMT.format(float(x))


def emit_table(args: argparse.Namespace, command: str, header: Sequence[str],
               rows: Sequence[Sequence], stream) -> None:
    if args.format == "json":
        payload = {
            "command": command,
            "config": args.echo,
            "columns": list(header),
            "rows": [[x if isinstance(x, str) else
                      int(x) if isinstance(x, (int, np.integer)) else float(x)
                      for x in row] for row in rows],
        }
        stream.write(json.dumps(payload, indent=2) + "\n")
        return
    stream.write(f"# casimir-cyl {command}\n")
    for line in args.echo:
        stream.write(f"# {line}\n")
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(_num(x) for x in row) + "\n")


def write_svg_plot(path: str, x: np.ndarray, y: np.ndarray, label: str,
                   xlabel: str, ylabel: str, title: str) -> None:
    """Minimal deterministic SVG line chart: axes, ticks, one labelled polyline."""
    width, height = 640, 480
    ml, mr, mt, mb = 70, 20, 30, 50
    pw, ph = width - ml - mr, height - mt - mb
    xmin, xmax = float(np.min(x)), float(np.max(x))
    ymin, ymax = float(np.min(y)), float(np.max(y))
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

    color = "#1f77b4"
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
    pts = " ".join(f"{px(float(xi)):.2f},{py(float(yi)):.2f}"
                   for xi, yi in zip(x, y))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                 f'stroke-width="1.5"/>')
    parts.append(f'<text x="{ml+pw-6}" y="{mt+16}" text-anchor="end" '
                 f'font-size="11" fill="{color}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def _sweep(args: argparse.Namespace, stream, command: str,
           header: Sequence[str], point, label: str, ylabel: str,
           title: str) -> None:
    """Rows ``point(a_nm)`` over the separations in ascending order, their
    table, and with ``--plot`` an SVG of the second column against the first."""
    rows = [point(float(a_nm)) for a_nm in args.a_values_nm]
    emit_table(args, command, header, rows, stream)
    if args.plot:
        write_svg_plot(args.plot, np.array([r[0] for r in rows]),
                       np.array([r[1] for r in rows]), label, "a (nm)",
                       ylabel, title)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_force(args: argparse.Namespace, stream) -> None:
    model = _model(args)
    quad = QuadratureSpec(rel_tol=args.rel_tol)
    grad = args.which == "gradient"
    op = cylinder_force_gradient if grad else cylinder_force
    top = tilted_gradient if grad else tilted_force
    thermal = ThermalState(args.T)
    fixed_tilt = None if args.a_theta is None else TiltParams(args.a_theta)

    def point(a_nm: float):
        geom = _geometry(args, a_nm)
        # an angle theta gives a different a_theta at each separation
        tilt = (fixed_tilt if args.theta is None
                else TiltParams.from_angle(args.theta, geom))
        if tilt is not None:
            res = top(geom, thermal, model, tilt, quad)
        else:
            res = op(geom, thermal, model, quad)
        return (a_nm, res.value, res.per_length, res.l_used,
                res.truncation_estimate)

    unit = "N_per_m" if grad else "N"
    header = ["a_nm", f"value_{unit}", f"per_length_{unit}_per_m",
              "l_used", "truncation_estimate"]
    _sweep(args, stream, args.which, header, point, args.which,
           f"{args.which} ({unit.replace('_', ' ')})",
           f"Casimir {args.which}, {args.model}")


def cmd_thermal_correction(args: argparse.Namespace, stream) -> None:
    model = _model(args)
    quad = QuadratureSpec(rel_tol=args.rel_tol)

    def point(a_nm: float):
        delta = thermal_correction(_geometry(args, a_nm), model, quad,
                                   which=args.which, temperature=args.T)
        return (a_nm, delta)

    _sweep(args, stream, "thermal-correction",
           ["a_nm", f"delta_T_{args.which}_fraction"], point,
           f"delta_T ({args.which})", "relative thermal correction",
           f"Thermal correction, {args.model}")


_TABLE1_A_NM = (100.0, 150.0, 200.0, 300.0, 400.0, 500.0)
_TABLE1_ATHETA = (0.01, 0.05, 0.1, 0.5)


def cmd_table1(args: argparse.Namespace, stream) -> None:
    """Nonmultiplicative tilt factors on the reference grid, plus kappa row."""
    model = _model(args)
    quad = QuadratureSpec(rel_tol=args.rel_tol)
    thermal = ThermalState(args.T)
    tilts = [TiltParams(A) for A in _TABLE1_ATHETA]
    rows = []
    for a_nm in _TABLE1_A_NM:
        geom = _geometry(args, a_nm)
        # kappa_nm = tilted / untilted force, the untilted one computed once
        plain = cylinder_force(geom, thermal, model, quad).value
        tilted = [tilted_force(geom, thermal, model, tilt, quad).value for tilt in tilts]
        rows.append((a_nm, *(value / plain for value in tilted)))
    if args.format == "json":
        emit_table(args, "table1",
                   ["a_nm"] + [f"A_theta_{A}" for A in _TABLE1_ATHETA],
                   rows, stream)
        return
    stream.write(f"# casimir-cyl table1 (kappa_nm grid, {args.model}, "
                 f"T = {args.T} K)\n")
    head = "a_nm".ljust(10) + "".join(f"A={A:<10}" for A in _TABLE1_ATHETA)
    stream.write(head.rstrip() + "\n")
    for a_nm, *vals in rows:
        stream.write(f"{a_nm:<10.0f}" + "".join(f"{v:<12.5f}" for v in vals).rstrip()
                     + "\n")
    stream.write("kappa     " + "".join(f"{kappa(A):<12.5f}"
                                        for A in _TABLE1_ATHETA).rstrip() + "\n")


def cmd_edge_error(args: argparse.Namespace, stream) -> None:
    """Total PFA+edge error budget and overhang contributions."""
    rows = []
    for a_nm in args.a_values_nm:
        geom = _geometry(args, float(a_nm))
        base = edge_corrected_force(geom)
        for which in ("force", "gradient"):
            rows.append((float(a_nm), which,
                         100.0 * total_pfa_error(geom, which)))
        for L1_um in args.L1:
            edge = EdgeParams(L1=L1_um * 1e-6, R=geom.R)
            extra = overhang_force(geom, edge) / base - 1.0
            rows.append((float(a_nm), f"overhang_L1_{L1_um:g}um",
                         100.0 * abs(extra)))
    header = ["a_nm", "quantity", "error_percent"]
    if args.format == "json":
        emit_table(args, "edge-error", header, rows, stream)
        return
    stream.write("# casimir-cyl edge-error\n")
    for line in args.echo:
        stream.write(f"# {line}\n")
    stream.write(",".join(header) + "\n")
    for a_nm, which, err in rows:
        stream.write(f"{a_nm:.6g},{which},{_FMT.format(err)}\n")


def cmd_kk_ingest(args: argparse.Namespace, stream) -> None:
    """Validate an optical-data file and report the resulting model."""
    table = load_optical_table(args.path)
    tail = Drude(args.omega_p, args.gamma)
    model = Tabulated(table=table, tail=tail)
    stream.write("# casimir-cyl kk-ingest\n")
    stream.write(f"# file = {args.path}\n")
    stream.write(f"# rows = {table.omega.size}\n")
    stream.write(f"# omega_range_eV = [{table.omega_min:g}, {table.omega_max:g}]\n")
    stream.write(f"# tail: omega_p = {tail.omega_p} eV, gamma = {tail.gamma} eV\n")
    stream.write("xi_eV,eps_i_xi\n")
    for xi in (0.1, 0.5, 1.0, 5.0, 10.0):
        stream.write(f"{xi:g},{_FMT.format(eps_imag_axis(model, xi))}\n")


def cmd_asymptote(args: argparse.Namespace, stream) -> None:
    """High-temperature closed-form force and gradient for the model."""
    model = _model(args)
    rows = []
    for a_nm in args.a_values_nm:
        geom = _geometry(args, float(a_nm))
        behavior = zero_frequency_character(model, geom.a)
        rows.append((float(a_nm),
                     high_temperature_force(geom, args.T, behavior),
                     high_temperature_gradient(geom, args.T, behavior)))
    emit_table(args, "asymptote",
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
    """The options every command shares, each with its type and default.

    A config file may set the same keys; its values replace these defaults
    and go through the same ``type`` (see ``make_parser``).
    """
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", help="flat key = value configuration file")
    p.add_argument("--a", type=float, help="separation in nm")
    p.add_argument("--a-sweep", dest="a_sweep",
                   help="separation sweep MIN:MAX:N[:log] in nm")
    p.add_argument("--R", type=float, default=100.0, help="cylinder radius in um")
    p.add_argument("--L", type=float, default=100.0, help="cylinder length in um")
    p.add_argument("--T", type=float, default=300.0, help="temperature in K")
    p.add_argument("--model", default="drude",
                   choices=["ideal", "drude", "plasma", "dielectric",
                            "tabulated"])
    p.add_argument("--omega-p", dest="omega_p", type=float, default=9.0,
                   help="plasma frequency, eV")
    p.add_argument("--gamma", type=float, default=0.035,
                   help="relaxation parameter, eV")
    p.add_argument("--eps0", type=float,
                   help="static permittivity (dielectric model)")
    p.add_argument("--oscillators", default="",
                   help="semicolon-separated g:omega:gamma triples (eV)")
    p.add_argument("--optical-data", dest="optical_data",
                   help="optical data file (tabulated model)")
    p.add_argument("--theta", type=float, help="tilt angle, rad")
    p.add_argument("--a-theta", dest="a_theta", type=float,
                   help="dimensionless tilt parameter theta L/(2a)")
    p.add_argument("--rel-tol", dest="rel_tol", type=float, default=1e-9,
                   help="relative tolerance, in [1e-12, 1e-4]")
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.add_argument("--plot", help="write an SVG line chart here")
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--which", default="force", choices=["force", "gradient"])
    p.add_argument("--workers", type=int, help="accepted; has no effect")
    p.add_argument("--L1", type=_float_list, default="25,50",
                   help="overhang distances in um, comma separated")
    return p


def make_parser(defaults: dict[str, str] | None = None) -> argparse.ArgumentParser:
    """The casimir-cyl parser; ``defaults`` (a config file's values, as
    strings) replace the option defaults, so flags still win."""
    parser = argparse.ArgumentParser(
        prog="casimir-cyl",
        description="Thermal Casimir force for a coated cylinder above a plate")
    sub = parser.add_subparsers(dest="command", required=True)
    options = _option_parser()
    options.set_defaults(**(defaults or {}))
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, parents=[options])
        if name == "kk-ingest":
            p.add_argument("path", help="optical data file to ingest")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; ``--out`` (or stdout) gets its text only on success."""
    try:
        args = make_parser().parse_args(argv)
        if args.config:
            args = make_parser(_file_defaults(args)).parse_args(argv)
        build_config(args)
        buffer = io.StringIO()
        _COMMANDS[args.command][0](args, buffer)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(buffer.getvalue())
        else:
            sys.stdout.write(buffer.getvalue())
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (ValueError, OSError) as exc:  # ConfigError, OpticalTableError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
