import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dispersionlab import analysis, ssm
from dispersionlab.cli import blas_environment

_ROOT = Path(__file__).resolve().parent.parent
_PATH = _ROOT / "tools" / "output_digest.py"
_SPEC = importlib.util.spec_from_file_location("output_digest", _PATH)
output_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_digest)


_FIXTURE = _ROOT / "tests" / "fixtures" / "output_digest.txt"
_REGENERATE = ("OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/output_digest.py --header "
               "> tests/fixtures/output_digest.txt")


@pytest.fixture(scope="module")
def digest_runs(tmp_path_factory):
    """(exit code, lines a fresh interpreter printed, lines built in this process), built once.

    With one BLAS thread the fresh interpreter runs while this process builds
    its own lines. Two multithreaded runs contend for the cores (10 s
    overlapped against 8 s in turn on 2 vCPUs), so they take turns. The child
    prints to a file: a full pipe would stall it until this process is done.
    """
    out = tmp_path_factory.mktemp("digest") / "digest.txt"
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    with (open(out, "w") as fh,
          subprocess.Popen([sys.executable, str(_PATH)], env=env, stdout=fh) as child):
        if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
            child.wait()
        in_process = list(output_digest.lines())
    return child.returncode, out.read_text().splitlines(), in_process


def test_two_runs_agree(digest_runs):
    returncode, printed, in_process = digest_runs
    assert returncode == 0
    assert printed == in_process
    names = [line.split(" ")[0] for line in printed]
    assert len(names) == len(set(names))
    assert all(len(line.split(" ")) == 2 for line in printed)
    assert ({name for name in names if name.startswith("measure_dispersion/")}
            == {f"measure_dispersion/{variant}" for variant in analysis.VARIANTS})


def digest_mismatch(committed: list[str], built: list[str]) -> str | None:
    """None when the built lines equal the committed ones; else a report naming the
    moved, new and missing lines, with the commands that measure and regenerate them."""
    if committed == built:
        return None
    old = dict(line.split(" ") for line in committed)
    new = dict(line.split(" ") for line in built)
    moved = ([f"{name} moved" for name in new if name in old and new[name] != old[name]]
             + [f"{name} new" for name in new if name not in old]
             + [f"{name} missing" for name in old if name not in new])
    return "\n".join([
        f"{len(moved)} of {len(committed)} committed output digest lines differ"
        + ("" if moved else " (same lines, another order)"), *moved[:40],
        *(["..."] if len(moved) > 40 else []),
        "Measure the change: at the parent tree run",
        "  OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/output_digest.py --save DIR",
        "then at this tree",
        "  OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/output_digest.py --compare DIR",
        "If the outputs moved on purpose, regenerate the fixture and list the moved lines:",
        f"  {_REGENERATE}"])


def test_committed_digest_matches(digest_runs):
    text = _FIXTURE.read_text().splitlines()
    recorded = dict(line[2:].split(": ", 1) for line in text if line.startswith("# "))
    here = output_digest.environment()
    for field in [*here, *sorted(recorded.keys() - here.keys())]:
        if recorded.get(field) != here.get(field):
            pytest.skip(f"output digest fixture: {field} is {here.get(field)!r} here, "
                        f"{recorded.get(field)!r} in {_FIXTURE.name}; its lines are not checked")
    report = digest_mismatch([line for line in text if not line.startswith("# ")],
                             digest_runs[2])
    if report:
        pytest.fail(report, pytrace=False)


def test_header_reads_the_library_blas_probe():
    here, blas = output_digest.environment(), blas_environment()
    assert {field: here[field] for field in blas} == blas


def test_mismatch_names_the_moved_line():
    committed = ["a 01", "b 02", "c 03"]
    report = digest_mismatch(committed, ["a 01", "b 12", "d 04"])
    assert report.splitlines()[:4] == ["3 of 3 committed output digest lines differ",
                                       "b moved", "d new", "c missing"]
    assert "--save DIR" in report and "--compare DIR" in report and _REGENERATE in report
    assert digest_mismatch(committed, list(committed)) is None


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


def _group(**values):
    return lambda: iter(values.items())


def test_save_writes_the_lines_and_compare_finds_nothing(tmp_path):
    group = _group(a=np.array([1.0, np.nan]), b=[np.eye(2), np.arange(3)])
    printed = output_digest.save(tmp_path, [group])
    assert printed == list(output_digest.lines([group]))
    assert (tmp_path / "digest.txt").read_text().splitlines() == printed
    assert output_digest.compare(tmp_path, [group]) == []


def test_compare_reports_each_changed_line(tmp_path):
    output_digest.save(tmp_path, [_group(same=np.ones(2), moved=[np.array([1.0, 2.0, -4.0])],
                                         reshaped=np.ones(4), gone=np.zeros(1))])
    after = _group(same=np.ones(2), moved=[np.array([1.0, 2.0, -4.0 + 1e-3])],
                   reshaped=np.ones((2, 2)), added=np.zeros(1))
    assert output_digest.compare(tmp_path, [after]) == [
        "moved 2.50e-04", "reshaped shape", "added new", "gone missing"]


def test_relative_change_of_special_values():
    change = output_digest.relative_change
    assert change([np.array([np.nan, np.inf, 2.0])], [np.array([np.nan, np.inf, 2.0])]) == 0.0
    assert change([np.array([np.nan, 2.0])], [np.array([1.0, 2.0])]) == np.inf
    assert change([np.zeros(2)], [np.array([0.0, 1e-20])]) == 1e-20  # absolute at scale 0
    assert change([np.ones(2), np.full(1, 8.0)], [np.ones(2), np.full(1, 6.0)]) == 0.25
    assert change([np.ones(2)], [np.ones(2), np.ones(1)]) is None


def test_save_refuses_a_directory_inside_the_tree(capsys):
    with pytest.raises(SystemExit) as exc:
        output_digest.main(["--save", str(_ROOT / "digest-arrays")])
    assert exc.value.code == 2 and "outside the source tree" in capsys.readouterr().err
    assert not (_ROOT / "digest-arrays").exists()
