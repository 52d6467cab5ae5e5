"""Every script in demos/ runs to completion and prints its walkthrough."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(demo: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    assert _run(demo).strip()


def test_rees_line_names_a_structural_witness():
    # the absorbing zero witnesses in every semigroup with a zero, so the
    # Rees line must name another translator, as the suite's check does
    out = _run(ROOT / "demos" / "which_semigroups_qualify.py")
    rees = [line for line in out.splitlines() if line.startswith("Rees matrix")]
    assert len(rees) == 1 and "FAILS" in rees[0]
    assert "ReesZero" not in rees[0]
