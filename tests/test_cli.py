"""CLI surface: outputs, determinism, exit codes, config handling."""
import json

import numpy as np
import pytest

from casimir_cyl import (Geometry, IdealMetal, ThermalState, TiltParams,
                         cylinder_force, gold_drude, kappa, kappa_nm, tilted_force)
from casimir_cyl.cli import (EXIT_CONFIG, EXIT_CONVERGENCE, EXIT_OK, main,
                             parse_sweep)
from casimir_cyl.quadrature import ConvergenceError, QuadratureSpec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_sweep():
    lin = parse_sweep("100:500:5")
    assert np.allclose(lin, [100, 200, 300, 400, 500])
    log = parse_sweep("100:10000:3:log")
    assert np.allclose(log, [100, 1000, 10000])
    from casimir_cyl.cli import ConfigError
    for bad in ("100:500", "500:100:5", "100:500:1", "a:b:c", "1:2:3:cubic"):
        with pytest.raises(ConfigError):
            parse_sweep(bad)
    for bad in ("100:inf:3", "100:inf:3:log", "-inf:100:3", "nan:100:3"):
        with pytest.raises(ConfigError, match=f"'{bad}'.*finite"):
            parse_sweep(bad)


def test_single_point_matches_library(capsys):
    code, out, _ = run_cli(capsys, "force", "--a", "250", "--model", "drude")
    assert code == EXIT_OK
    row = [ln for ln in out.splitlines() if not ln.startswith("#")][1]
    geom = Geometry(a=250e-9, R=100e-6, L=100e-6)
    res = cylinder_force(geom, ThermalState.at(300.0, geom), gold_drude())
    fields = row.split(",")
    assert fields[0] == "{:.11e}".format(250.0)
    assert fields[1] == "{:.11e}".format(res.value)  # byte-for-byte
    assert int(fields[3]) == res.l_used


def test_sweep_of_one_equals_single(capsys):
    _, out1, _ = run_cli(capsys, "force", "--a", "300", "--model", "ideal")
    _, out2, _ = run_cli(capsys, "force", "--a-sweep", "300:600:2",
                         "--model", "ideal")
    row1 = [ln for ln in out1.splitlines() if not ln.startswith("#")][1]
    row2 = [ln for ln in out2.splitlines() if not ln.startswith("#")][1]
    assert row1 == row2


def test_sweep_row_count_and_order(capsys):
    code, out, _ = run_cli(capsys, "gradient", "--a-sweep", "100:500:5",
                           "--model", "ideal")
    assert code == EXIT_OK
    rows = [ln for ln in out.splitlines() if not ln.startswith("#")][1:]
    assert len(rows) == 5
    a_vals = [float(r.split(",")[0]) for r in rows]
    assert a_vals == sorted(a_vals)
    grads = [float(r.split(",")[1]) for r in rows]
    assert all(g > 0 for g in grads)


def test_byte_identical_reruns(capsys):
    args = ("force", "--a-sweep", "200:400:3", "--model", "drude")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_workers_do_not_change_output(capsys):
    base = ("force", "--a-sweep", "200:400:3", "--model", "drude")
    _, out1, _ = run_cli(capsys, *base)
    _, out2, _ = run_cli(capsys, *base, "--workers", "3")
    assert out1 == out2


def test_json_format(capsys):
    code, out, _ = run_cli(capsys, "force", "--a", "300", "--model", "ideal",
                           "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["command"] == "force"
    assert len(payload["rows"]) == 1
    assert payload["rows"][0][1] < 0.0


def test_csv_header_and_metadata(capsys):
    _, out, _ = run_cli(capsys, "force", "--a", "300", "--model", "ideal")
    lines = out.splitlines()
    assert lines[0] == "# casimir-cyl force"
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header.split(",")[0] == "a_nm"
    assert "value_N" in header


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = ideal\na = 300  # nm\nT = 300\n")
    _, out1, _ = run_cli(capsys, "force", "--config", str(cfg))
    _, out2, _ = run_cli(capsys, "force", "--a", "300", "--model", "ideal")
    row1 = [ln for ln in out1.splitlines() if not ln.startswith("#")][1]
    row2 = [ln for ln in out2.splitlines() if not ln.startswith("#")][1]
    assert row1 == row2
    # flag overrides the file value
    _, out3, _ = run_cli(capsys, "force", "--config", str(cfg), "--a", "400")
    row3 = [ln for ln in out3.splitlines() if not ln.startswith("#")][1]
    assert row3.split(",")[0] == "{:.11e}".format(400.0)
    # one value of each kind: float, choice, raw string and the inert workers
    kinds = tmp_path / "kinds.cfg"
    kinds.write_text("model = ideal\nR = 50\nformat = json\n"
                     "a_sweep = 300:600:2\nworkers = 2\n")
    flags = ("--model", "ideal", "--R", "50", "--format", "json",
             "--a-sweep", "300:600:2")
    code, from_file, _ = run_cli(capsys, "force", "--config", str(kinds))
    assert code == EXIT_OK
    assert from_file == run_cli(capsys, "force", *flags)[1]
    overrides = ("--R", "60", "--format", "csv", "--a-sweep", "300:900:3",
                 "--workers", "1")
    _, over_file, _ = run_cli(capsys, "force", "--config", str(kinds),
                              *overrides)
    assert over_file == run_cli(capsys, "force", *flags, *overrides)[1]
    assert over_file.startswith("# casimir-cyl force\n")
    assert "R_um = 60.0" in over_file
    assert "a_sweep_nm = 300:900:3" in over_file
    # a flag for one option of an exclusive pair drops the file's value for
    # the other: a over a_sweep, a_theta over theta
    for text, flags in (("a_sweep = 100:300:3\n", ("--a", "500")),
                        ("theta = 1e-4\n", ("--a", "500", "--a-theta", "0.2"))):
        pair = tmp_path / "pair.cfg"
        pair.write_text(text)
        flags += ("--model", "ideal", "--rel-tol", "1e-6")
        code, from_pair, _ = run_cli(capsys, "force", "--config", str(pair), *flags)
        assert code == EXIT_OK
        assert from_pair == run_cli(capsys, "force", *flags)[1]


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense_key = 1\n")
    code, _, err = run_cli(capsys, "force", "--config", str(cfg))
    assert code == EXIT_CONFIG
    assert "nonsense_key" in err


def test_non_numeric_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "abc.cfg"
    cfg.write_text("a = abc\n")
    for argv in (("force", "--a", "abc"), ("force", "--config", str(cfg))):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        assert code == EXIT_CONFIG
        assert capsys.readouterr().out == ""


def test_conflicting_a_and_sweep_exit_2(capsys):
    code, _, _ = run_cli(capsys, "force", "--a", "100", "--a-sweep",
                         "100:200:2")
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("argv", [
    ("force", "--a", "500", "--T", "nan"),
    ("force", "--a", "nan"),
    ("force", "--a", "500", "--R", "inf"),
    ("gradient", "--a", "500", "--a-theta", "nan"),
    ("asymptote", "--a", "500", "--T", "inf"),
    ("asymptote", "--a", "500", "--T", "0"),
    # without the endpoint check numpy warned (an error in this suite) on these
    ("force", "--a-sweep", "100:inf:3"),
    ("force", "--a-sweep", "100:inf:3:log"),
])
def test_non_finite_input_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("temperature", ["0", "300"])
def test_huge_separation_exits_2(capsys, temperature):
    # a**power past the float range: one line naming the separation, where
    # T = 0 ended in an OverflowError traceback and 300 K in the arrays of
    # limits of a failed quadrature
    code, out, err = run_cli(capsys, "force", "--a", "1e200", "--T", temperature,
                             "--model", "drude")
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == ("error: separation a = 1e+191 m puts the SI prefactor out of "
                   "the normal float range\n")


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command, key, value", [
    ("thermal-correction", "a_theta", "0.3"),
    ("asymptote", "theta", "0.001"),
    ("edge-error", "a_theta", "0.2"),
    ("table1", "theta", "0.001"),
    ("kk-ingest", "a_theta", "0.1"),
    ("asymptote", "plot", "p.svg"),
    ("edge-error", "plot", "p.svg"),
    ("table1", "plot", "p.svg"),
    ("kk-ingest", "plot", "p.svg"),
    ("kk-ingest", "format", "json"),
    ("table1", "a", "500"),
    ("table1", "a_sweep", "100:500:3"),
    ("kk-ingest", "a", "500"),
    ("kk-ingest", "a_sweep", "100:500:3"),
])
def test_option_the_command_would_ignore_exits_2(tmp_path, monkeypatch, capsys,
                                                 command, key, value, source):
    monkeypatch.chdir(tmp_path)
    argv = [command] + (["optical.dat"] if command == "kk-ingest" else [])
    if source == "flag":
        argv += ["--" + key.replace("_", "-"), value]
    else:
        (tmp_path / "run.cfg").write_text(f"{key} = {value}\n")
        argv += ["--config", "run.cfg"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_CONFIG, "")
    assert command in err
    assert not (tmp_path / "p.svg").exists()


@pytest.mark.parametrize("argv, name", [
    (("force", "--a", "500", "--omega-p", "nan"), "omega_p"),
    (("force", "--a", "500", "--gamma", "inf"), "gamma"),
    (("force", "--a", "500", "--model", "dielectric", "--eps0", "inf"), "eps0"),
    (("force", "--a", "500", "--model", "plasma", "--omega-p", "inf"), "omega_p"),
])
def test_non_finite_model_parameter_exits_2(capsys, argv, name):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == ""
    assert name in err and "finite" in err


def test_dielectric_requires_eps0(capsys):
    code, _, err = run_cli(capsys, "force", "--a", "300", "--model",
                           "dielectric")
    assert code == EXIT_CONFIG
    assert "eps0" in err


def test_convergence_failure_exits_3(capsys, monkeypatch):
    import casimir_cyl.cli as climod

    def boom(*args, **kwargs):
        raise ConvergenceError("forced for the exit-code test")

    monkeypatch.setattr(climod, "cylinder_force", boom)
    code, _, err = run_cli(capsys, "force", "--a", "300", "--model", "ideal")
    assert code == EXIT_CONVERGENCE
    assert "convergence" in err.lower()


def test_out_file(tmp_path, capsys):
    target = tmp_path / "force.csv"
    code, out, _ = run_cli(capsys, "force", "--a", "300", "--model", "ideal",
                           "--out", str(target))
    assert code == EXIT_OK
    assert out == ""
    assert "a_nm" in target.read_text()


@pytest.mark.parametrize("failure, argv, expected", [
    ("config", ("--model", "dielectric"), EXIT_CONFIG),
    ("missing file", ("--model", "tabulated", "--optical-data", "missing.dat"),
     EXIT_CONFIG),
    ("convergence", ("--model", "ideal"), EXIT_CONVERGENCE),
])
def test_failed_command_keeps_out_file(tmp_path, monkeypatch, capsys, failure,
                                       argv, expected):
    # the text goes to --out only once the command has succeeded
    import casimir_cyl.cli as climod

    def boom(*args, **kwargs):
        raise ConvergenceError("forced for the --out test")

    monkeypatch.chdir(tmp_path)
    if failure == "convergence":
        monkeypatch.setattr(climod, "cylinder_force", boom)
    (tmp_path / "k.csv").write_text("keep\n")
    code, out, _ = run_cli(capsys, "force", "--a", "500", *argv, "--out", "k.csv")
    assert (code, out) == (expected, "")
    assert (tmp_path / "k.csv").read_text() == "keep\n"


def test_rel_tol_below_floor_exits_2(capsys):
    # below 1e-12 the finite-T rows would refine to their panel cap
    code, out, err = run_cli(capsys, "force", "--a", "100", "--rel-tol", "1e-13")
    assert (code, out) == (EXIT_CONFIG, "")
    assert "rel_tol" in err


def test_negative_oscillator_strength_exits_2(capsys):
    # rejected where it enters, before a kernel could raise the RuntimeWarning
    # that this suite turns into an error
    code, out, err = run_cli(capsys, "force", "--a", "500", "--model", "plasma",
                             "--oscillators=-2000:3:0.5")
    assert (code, out) == (EXIT_CONFIG, "")
    assert "strength g" in err


@pytest.mark.parametrize("argv, config, message", [
    (("force", "--a", "500", "--theta", "1e-4", "--a-theta", "0.01"), None,
     "either theta or a_theta"),
    (("force", "--a", "500"), "format = xml\n", "unknown format 'xml'"),
    (("force", "--a", "500"), "which = both\n", "which must be force or gradient"),
    (("force", "--a", "500"), "# separation\na 500\n", "run.cfg:2: expected 'key = value'"),
    (("force", "--a-sweep=-1:100:3:log"), None, "log sweep needs positive endpoints"),
    (("force", "--a", "500", "--model", "plasma", "--oscillators", "1:2"), None,
     "bad oscillator spec '1:2'"),
    (("force", "--a", "500", "--model", "plasma", "--oscillators", "20:3:1; a:3:0.5"), None,
     "bad oscillator spec 'a:3:0.5'"),
    (("force", "--a", "500", "--model", "tabulated"), None, "requires optical_data"),
    (("force",), "a = 100\na_sweep = 100:300:3\n", "either a or a-sweep"),
    (("force", "--a", "500"), "theta = 1e-4\na_theta = 0.2\n", "either theta or a_theta"),
    (("thermal-correction", "--a", "100", "--T", "1e-300"), None,
     "underflows to 0 at T = 1e-300 K and a = 1.0000000000000001e-07 m"),
    (("force", "--a", "1e-300"), None, "underflows to 0 at T = 300.0 K and a = 1e-309 m"),
], ids=["theta_and_a_theta", "config_format", "config_which", "config_no_equals",
        "log_sweep_negative", "oscillator_two_fields", "oscillator_non_numeric",
        "tabulated_without_data", "config_a_and_a_sweep", "config_theta_and_a_theta",
        "tau_underflow_low_T", "tau_underflow_small_a"])
def test_bad_input_exits_2(tmp_path, monkeypatch, capsys, argv, config, message):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv += ("--config", "run.cfg")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_CONFIG, "")
    assert message in err


def test_theta_through_cli(capsys):
    # --theta goes through TiltParams.from_angle and is echoed as theta_rad
    code, out, _ = run_cli(capsys, "force", "--a", "500", "--model", "ideal",
                           "--theta", "1e-4", "--rel-tol", "1e-7")
    assert code == EXIT_OK
    assert "# theta_rad = 0.0001" in out.splitlines()
    geom = Geometry(a=500e-9, R=100e-6, L=100e-6)
    tilt = TiltParams.from_angle(1e-4, geom)
    assert tilt.a_theta == pytest.approx(0.01, rel=1e-12)
    want = tilted_force(geom, ThermalState.at(300.0, geom), IdealMetal(), tilt,
                        QuadratureSpec(rel_tol=1e-7))
    row = [ln for ln in out.splitlines() if not ln.startswith("#")][1]
    assert row.split(",")[1:] == ["{:.11e}".format(x) for x in
                                  (want.value, want.per_length)] + [
        str(want.l_used), "{:.11e}".format(want.truncation_estimate)]


def test_plot_svg(tmp_path, capsys):
    target = tmp_path / "sweep.svg"
    code, _, _ = run_cli(capsys, "force", "--a-sweep", "100:400:4",
                         "--model", "ideal", "--plot", str(target))
    assert code == EXIT_OK
    svg = target.read_text()
    assert svg.startswith("<svg")
    assert "<polyline" in svg
    assert "a (nm)" in svg


def test_thermal_correction_command(capsys):
    code, out, _ = run_cli(capsys, "thermal-correction", "--a", "500",
                           "--model", "drude", "--rel-tol", "1e-6")
    assert code == EXIT_OK
    row = [ln for ln in out.splitlines() if not ln.startswith("#")][1]
    delta = float(row.split(",")[1])
    assert -0.15 < delta < -0.05  # Drude at 500 nm is about -8.7%


def test_thermal_correction_figure_sweep(tmp_path, capsys):
    # figure-style run: Drude correction curve is negative throughout and
    # deepens with separation below a micrometer; emits the SVG companion
    target = tmp_path / "fig.svg"
    code, out, _ = run_cli(capsys, "thermal-correction", "--a-sweep",
                           "200:800:3", "--model", "drude", "--rel-tol",
                           "1e-5", "--plot", str(target))
    assert code == EXIT_OK
    rows = [ln for ln in out.splitlines() if not ln.startswith("#")][1:]
    deltas = [float(r.split(",")[1]) for r in rows]
    assert all(d < 0.0 for d in deltas)
    assert deltas[0] > deltas[-1]  # more negative at larger a in this range
    assert "<polyline" in target.read_text()


def test_table1_bottom_row(capsys):
    code, out, _ = run_cli(capsys, "table1", "--model", "ideal",
                           "--rel-tol", "1e-6")
    assert code == EXIT_OK
    lines = out.splitlines()
    kappa_line = [ln for ln in lines if ln.startswith("kappa")][0]
    vals = [float(tok) for tok in kappa_line.split()[1:]]
    for got, a_theta in zip(vals, (0.01, 0.05, 0.1, 0.5)):
        assert got == pytest.approx(kappa(a_theta), abs=5e-5)
    # 6 separation rows + kappa row
    data_lines = [ln for ln in lines
                  if ln and not ln.startswith("#") and not ln.startswith("a_nm")]
    assert len(data_lines) == 7


def test_table1_untilted_force_once_per_separation(capsys, monkeypatch):
    from casimir_cyl import casimir_core, tilt
    from casimir_cyl.dielectric import IdealMetal
    seen = []

    def count_in(module):
        evaluate = module._evaluate

        def counted(obs, geometry, thermal, model, quad, a_theta=0.0):
            seen.append(a_theta)
            return evaluate(obs, geometry, thermal, model, quad, a_theta)
        monkeypatch.setattr(module, "_evaluate", counted)
    count_in(casimir_core)
    count_in(tilt)
    code, out, _ = run_cli(capsys, "table1", "--model", "ideal", "--rel-tol", "1e-6")
    assert code == EXIT_OK
    # 6 untilted runs, one per separation, and 24 tilted ones
    assert seen.count(0.0) == 6 and len(seen) == 30
    monkeypatch.undo()
    # every entry prints as the per-tilt kappa_nm ratio did
    quad = QuadratureSpec(rel_tol=1e-6)
    rows = [ln for ln in out.splitlines() if ln[:1].isdigit()]
    assert len(rows) == 6
    for row in rows:
        geom = Geometry(a=float(row.split()[0]) * 1e-9, R=100e-6, L=100e-6)
        thermal = ThermalState.at(300.0, geom)
        ratios = [kappa_nm(geom, thermal, IdealMetal(), TiltParams.from_a_theta(A, geom), quad)
                  for A in (0.01, 0.05, 0.1, 0.5)]
        assert row[10:] == "".join(f"{k:<12.5f}" for k in ratios).rstrip()


def test_table1_json(capsys):
    argv = ("table1", "--model", "ideal", "--rel-tol", "1e-6")
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["command"] == "table1"
    assert payload["columns"] == ["a_nm", "A_theta_0.01", "A_theta_0.05",
                                  "A_theta_0.1", "A_theta_0.5"]
    rows = payload["rows"]
    assert [row[0] for row in rows] == [100.0, 150.0, 200.0, 300.0, 400.0, 500.0]
    # the same ratios as the text table, which prints them to 5 decimals
    _, text, _ = run_cli(capsys, *argv)
    lines = [ln for ln in text.splitlines() if ln[:1].isdigit()]
    for row, line in zip(rows, lines, strict=True):
        assert line[10:] == "".join(f"{v:<12.5f}" for v in row[1:]).rstrip()
        assert all(1.0 < v < kappa(A) + 1e-6
                   for v, A in zip(row[1:], (0.01, 0.05, 0.1, 0.5)))


def test_edge_error_json(capsys):
    argv = ("edge-error", "--a-sweep", "100:500:3")
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["command"] == "edge-error"
    assert "a_sweep_nm = 100:500:3" in payload["config"]
    # the columns and rows of the csv table: a_nm, quantity, error_percent
    _, text, _ = run_cli(capsys, *argv)
    body = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert body[0] == "a_nm,quantity,error_percent"
    assert payload["columns"] == body[0].split(",")
    assert list(payload) == ["command", "config", "columns", "rows"]
    assert [f"{a:.6g},{q},{e:.11e}" for a, q, e in payload["rows"]] == body[1:]
    assert len(payload["rows"]) == 3 * 4  # force, gradient, two overhangs


def test_edge_error_command(capsys):
    code, out, _ = run_cli(capsys, "edge-error", "--a-sweep", "100:500:2")
    assert code == EXIT_OK
    body = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert body[0] == "a_nm,quantity,error_percent"
    table = {(ln.split(",")[0], ln.split(",")[1]): float(ln.split(",")[2])
             for ln in body[1:]}
    assert table[("100", "force")] == pytest.approx(0.07, abs=0.01)
    assert table[("500", "force")] == pytest.approx(0.37, abs=0.01)
    assert table[("100", "gradient")] == pytest.approx(0.05, abs=0.01)
    assert table[("500", "gradient")] == pytest.approx(0.26, abs=0.01)
    assert ("100", "overhang_L1_25um") in table


def test_kk_ingest_round_trip(tmp_path, capsys):
    omega = np.geomspace(0.125, 1e4, 400)
    rows = "\n".join(
        f"{w:.8e} {81.0 * 0.035 / (w * (w * w + 0.035**2)):.8e}"
        for w in omega)
    path = tmp_path / "au.dat"
    path.write_text("# synthetic Drude data\n" + rows + "\n")
    code, out, _ = run_cli(capsys, "kk-ingest", str(path))
    assert code == EXIT_OK
    eps_line = [ln for ln in out.splitlines() if ln.startswith("1,")][0]
    got = float(eps_line.split(",")[1])
    want = 1.0 + 81.0 / (1.0 * (1.0 + 0.035))
    assert abs(got / want - 1.0) < 1e-3


def test_tabulated_model_end_to_end(tmp_path, capsys):
    import numpy as np
    omega = np.geomspace(0.125, 1e4, 300)
    rows = "\n".join(
        f"{w:.8e} {81.0 * 0.035 / (w * (w * w + 0.035**2)):.8e}"
        for w in omega)
    path = tmp_path / "au.dat"
    path.write_text(rows + "\n")
    code, out, _ = run_cli(capsys, "force", "--a", "500", "--model",
                           "tabulated", "--optical-data", str(path),
                           "--rel-tol", "1e-6")
    assert code == EXIT_OK
    f_tab = float([ln for ln in out.splitlines()
                   if not ln.startswith("#")][1].split(",")[1])
    _, out2, _ = run_cli(capsys, "force", "--a", "500", "--model", "drude",
                         "--rel-tol", "1e-6")
    f_drude = float([ln for ln in out2.splitlines()
                     if not ln.startswith("#")][1].split(",")[1])
    assert f_tab == pytest.approx(f_drude, rel=5e-3)


def test_kk_ingest_malformed_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.dat"
    path.write_text("0.5 1.0\noops\n")
    code, _, err = run_cli(capsys, "kk-ingest", str(path))
    assert code == EXIT_CONFIG
    assert "line 2" in err


def test_kk_ingest_descending_rejected(tmp_path, capsys):
    path = tmp_path / "bad.dat"
    path.write_text("1.0 1.0\n0.5 2.0\n")
    code, _, err = run_cli(capsys, "kk-ingest", str(path))
    assert code == EXIT_CONFIG
    assert "ascending" in err


@pytest.mark.parametrize("row", ["nan 1.0", "inf 1.0", "3.0 nan", "3.0 inf"],
                         ids=["nan_energy", "inf_energy", "nan_im", "inf_im"])
def test_kk_ingest_non_finite_rejected(tmp_path, capsys, row):
    path = tmp_path / "bad.dat"
    path.write_text(f"0.5 1.0\n{row}\n")
    code, out, err = run_cli(capsys, "kk-ingest", str(path))
    assert code == EXIT_CONFIG
    assert out == ""
    assert "line 2" in err and "non-finite" in err


def test_asymptote_command(capsys):
    code, out, _ = run_cli(capsys, "asymptote", "--a", "1000",
                           "--model", "drude")
    assert code == EXIT_OK
    row = [ln for ln in out.splitlines() if not ln.startswith("#")][1]
    force, grad = float(row.split(",")[1]), float(row.split(",")[2])
    assert force < 0.0 and grad > 0.0


def test_tilted_force_through_cli(capsys):
    code, out, _ = run_cli(capsys, "force", "--a", "300", "--model", "ideal",
                           "--a-theta", "0.3", "--rel-tol", "1e-7")
    assert code == EXIT_OK
    tilted = float([ln for ln in out.splitlines()
                    if not ln.startswith("#")][1].split(",")[1])
    _, out0, _ = run_cli(capsys, "force", "--a", "300", "--model", "ideal",
                         "--rel-tol", "1e-7")
    plain = float([ln for ln in out0.splitlines()
                   if not ln.startswith("#")][1].split(",")[1])
    assert abs(tilted) > abs(plain)
    assert abs(tilted / plain) < kappa(0.3) + 1e-6
