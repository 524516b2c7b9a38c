"""Package metadata and the ``repro-bench`` command line."""

from __future__ import annotations

import ast
import json
import os
import re
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


def declared_requirements(tmp_path) -> dict:
    """``install_requires`` and ``extras_require`` as ``setup.py`` passes them,
    read through a stand-in ``setuptools``."""
    (tmp_path / "setuptools.py").write_text(
        "import json\n"
        "def find_packages(**kwargs):\n"
        "    return []\n"
        "def setup(**kwargs):\n"
        "    print(json.dumps({'install_requires': kwargs.get('install_requires', []),\n"
        "                      'extras_require': kwargs.get('extras_require', {})}))\n"
    )
    completed = subprocess.run(
        [sys.executable, str(ROOT / "setup.py")],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(tmp_path)},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(completed.stdout)


def imported_top_level_modules(directory: Path) -> set:
    """Top-level names of every absolute import in ``directory``'s modules."""
    names = set()
    for path in directory.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


@pytest.mark.skipif(
    not hasattr(sys, "stdlib_module_names"), reason="needs sys.stdlib_module_names"
)
def test_test_suites_import_only_declared_dependencies(tmp_path):
    """Every third-party module the test suites import is declared in
    ``install_requires`` or the ``test`` extra, so an environment installed
    from ``setup.py`` (as CI's is) can collect every test module."""
    declared = declared_requirements(tmp_path)
    requirements = declared["install_requires"] + declared["extras_require"]["test"]
    distributions = {
        re.split(r"[<>=!~\[; ]", requirement, maxsplit=1)[0].lower().replace("-", "_")
        for requirement in requirements
    }
    first_party = {"repro", "perfbench", "tests"}
    for directory in (ROOT / "tests", ROOT / "perfbench"):
        first_party.update(path.stem for path in directory.glob("*.py"))
    imported = set()
    for directory in (ROOT / "tests", ROOT / "perfbench" / "tests"):
        imported |= imported_top_level_modules(directory)
    third_party = imported - set(sys.stdlib_module_names) - first_party
    assert {"numpy", "pytest", "hypothesis"} <= third_party
    assert third_party <= distributions, sorted(third_party - distributions)


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
