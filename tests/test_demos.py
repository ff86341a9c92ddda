"""Smoke tests: the demos run to completion in a fresh interpreter.

Demo 04 is left out: it repeats criterion 10's training and takes seconds.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent


def run_demo(name):
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    return subprocess.run([sys.executable, str(_ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name", ["01_dispersion_sweep.py", "02_attention_zoo.py"])
def test_demo_runs(name):
    child = run_demo(name)
    assert child.returncode == 0, child.stderr[-3000:]


def test_mamba_demo_forms_agree():
    child = run_demo("03_mamba_equivalence.py")
    assert child.returncode == 0, child.stderr[-3000:]
    worst = re.search(r"worst difference between the three forms: (\S+)", child.stdout)
    assert worst is not None, child.stdout
    assert float(worst.group(1)) < 1e-12
