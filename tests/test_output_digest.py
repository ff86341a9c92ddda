import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from dispersionlab import analysis, ssm

_ROOT = Path(__file__).resolve().parent.parent
_PATH = _ROOT / "tools" / "output_digest.py"
_SPEC = importlib.util.spec_from_file_location("output_digest", _PATH)
output_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_digest)


def test_two_runs_agree():
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    printed = subprocess.run([sys.executable, str(_PATH)], env=env, check=True,
                             capture_output=True, text=True).stdout.splitlines()
    assert printed == list(output_digest.lines())
    names = [line.split(" ")[0] for line in printed]
    assert len(names) == len(set(names))
    assert all(len(line.split(" ")) == 2 for line in printed)
    assert ({name for name in names if name.startswith("measure_dispersion/")}
            == {f"measure_dispersion/{variant}" for variant in analysis.VARIANTS})


def test_perturbed_output_changes_its_lines(monkeypatch):
    before = list(output_digest.lines([output_digest.ssm_outputs]))
    exact = ssm.mamba_as_attention

    def one_ulp_off(p, x):
        y = exact(p, x).array.copy()
        y[-1, -1] = np.nextafter(y[-1, -1], np.inf)
        return y

    monkeypatch.setattr(ssm, "mamba_as_attention", one_ulp_off)
    after = list(output_digest.lines([output_digest.ssm_outputs]))
    changed = {b.split(" ")[0] for b, a in zip(before, after, strict=True) if b != a}
    assert changed == {b.split(" ")[0] for b in before if b.startswith("mamba_as_attention/")}


def test_digest_tells_arrays_apart():
    a = np.arange(6.0)
    assert output_digest.digest(a) == output_digest.digest(a.copy())
    assert output_digest.digest(a) != output_digest.digest(a.reshape(2, 3))
    assert output_digest.digest(a) != output_digest.digest(a.astype(np.float32))
    assert output_digest.digest([a, a]) != output_digest.digest([a])
