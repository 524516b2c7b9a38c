"""Package metadata and the ``repro-bench`` command line."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.bench import experiments

ROOT = Path(__file__).resolve().parent.parent


def test_setup_reads_the_package_version(tmp_path):
    """``setup.py`` and ``repro.__version__`` name the same release.

    ``setup.py`` runs against a stand-in ``setuptools`` that prints the
    version it is given, so the test needs no packaging toolchain.
    """
    (tmp_path / "setuptools.py").write_text(
        "def find_packages(**kwargs):\n"
        "    return []\n"
        "def setup(**kwargs):\n"
        "    print(kwargs['version'])\n"
    )
    completed = subprocess.run(
        [sys.executable, str(ROOT / "setup.py")],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(tmp_path)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert completed.stdout.strip() == repro.__version__


def test_bench_cli_rejects_unknown_experiment_before_running(monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(experiments, "run_all", lambda *args, **kwargs: ran.append(args) or [])
    monkeypatch.setattr(sys, "argv", ["repro-bench", "table_1", "no_such_experiment"])
    assert experiments.main() == 2
    assert ran == []
    error = capsys.readouterr().err
    assert "no_such_experiment" in error
    for name in experiments.ALL_EXPERIMENTS:
        assert name in error


@pytest.mark.parametrize("argv", [["--list"], []])
def test_bench_cli_exit_status_zero(monkeypatch, capsys, argv):
    monkeypatch.setattr(experiments, "run_all", lambda *args, **kwargs: [])
    monkeypatch.setattr(sys, "argv", ["repro-bench", *argv])
    assert experiments.main() == 0
