"""The demos print the same bytes as their recorded output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridlabel

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_output_is_unchanged(demo):
    env = dict(os.environ,
               PYTHONPATH=str(Path(gridlabel.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    want = (ROOT / "tests" / "golden" / "demos" / f"{demo.stem}.txt").read_text()
    assert proc.stdout == want


def test_every_demo_has_a_recorded_output():
    recorded = sorted((ROOT / "tests" / "golden" / "demos").glob("*.txt"))
    assert [p.stem for p in recorded] == [p.stem for p in DEMOS] and len(DEMOS) == 5
