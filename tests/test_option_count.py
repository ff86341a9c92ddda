import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parent
_PATH = _ROOT.parent / "tools" / "option_count.py"
_SPEC = importlib.util.spec_from_file_location("option_count", _PATH)
option_count = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(option_count)

_SAMPLE = _ROOT / "fixtures" / "option_count_sample.py"


def test_counts_each_kind_of_the_fixture_module(capsys):
    assert option_count.main([str(_SAMPLE)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "total 9", "argparse 3", "dataclass 2", "parameter 4"]


def test_directories_add_up_their_files(tmp_path):
    (tmp_path / "pkg").mkdir()
    for name in ("a.py", "pkg/b.py"):
        (tmp_path / name).write_text(_SAMPLE.read_text())
    (tmp_path / "notes.txt").write_text("def f(x=1): pass\n")
    counts = option_count.count_paths([tmp_path])
    assert dict(counts) == {"argparse": 6, "dataclass": 4, "parameter": 8}


def test_a_missing_path_is_one_error_line(tmp_path, capsys):
    missing = tmp_path / "nosuchpath"
    assert option_count.main([str(_SAMPLE), str(missing)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: no such file or directory: {missing}"]


# tools/option_count.py src at this tree; a change that adds or removes an option
# moves the pin in the same commit and says so in CHANGES.md
SRC_OPTIONS = 118


def test_src_option_total_is_pinned():
    total = sum(option_count.count_paths([_ROOT.parent / "src"]).values())
    assert total == SRC_OPTIONS, (
        f"tools/option_count.py src counts {total} options, the pin is {SRC_OPTIONS}: "
        "update SRC_OPTIONS in tests/test_option_count.py and record the change in CHANGES.md")
