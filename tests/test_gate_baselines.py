"""Every committed gate baseline is present in a clean checkout.

The ``benchmarks/check_e*.py`` gates compare a fresh run's output under
``benchmarks/results/`` (git-ignored) against a committed baseline under
``benchmarks/baselines/``.  A baseline that lands in the ignored folder,
or is never committed, makes its gate die with ``FileNotFoundError`` on a
clean clone.  This test reads each gate's source for the baselines it
loads and requires each one to exist under ``benchmarks/baselines/`` and
not be git-ignored.
"""

from __future__ import annotations

import pathlib
import re
import shutil
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmarks"
GATES = sorted(BENCH.glob("check_e*.py"))


def baselines_read_by(gate: pathlib.Path) -> list[str]:
    """The ``load("<name>", "baselines")`` file names in one gate."""
    return re.findall(r'load\("([^"]+)",\s*"baselines"\)',
                      gate.read_text())


def test_every_gate_reads_a_baseline():
    assert GATES
    for gate in GATES:
        assert baselines_read_by(gate), f"{gate.name} reads no baseline"


@pytest.mark.parametrize("gate", GATES, ids=lambda g: g.name)
def test_gate_baselines_exist_and_are_not_ignored(gate):
    for name in baselines_read_by(gate):
        path = BENCH / "baselines" / name
        assert path.is_file(), f"{gate.name}: {path} missing"
        if shutil.which("git") is None:
            continue
        # exit 0: ignored; 1: not ignored; 128: not a git checkout
        rc = subprocess.run(["git", "check-ignore", "-q", str(path)],
                            cwd=ROOT).returncode
        assert rc != 0, f"{gate.name}: {path} is git-ignored"
