"""CLI output is byte-identical to the benchmark's golden files.

Runs every command of ``bench/workloads.cli_commands()`` through
``casimir_cyl.cli.main`` in a temporary directory and compares stdout, and
the SVG where a command writes one, with ``bench/golden/``.  The benchmark's
``cli_batch`` workload makes the same comparison on subprocesses; this test
makes it part of the ordinary suite.  ``bench/`` is only read.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

from casimir_cyl.cli import EXIT_OK, main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()
COMMANDS = WORKLOADS.cli_commands()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden(name, tmp_path, monkeypatch, capsys):
    cmd = COMMANDS[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / WORKLOADS.OPTICAL_FILE).write_text(WORKLOADS.optical_file_text())
    assert main(list(cmd.argv)) == EXIT_OK
    out = capsys.readouterr().out
    assert out.encode() == (BENCH / "golden" / f"{name}.out").read_bytes()
    if cmd.plot:
        assert ((tmp_path / cmd.plot).read_bytes()
                == (BENCH / "golden" / f"{name}.svg").read_bytes())
