import importlib.util
import subprocess
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "options.py"
_spec = importlib.util.spec_from_file_location("options", _PATH)
options = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(options)

MODULE = '''
def f(a, b=1, c=2, *, d=3):
    def inner(x=0):
        return x
    return a


def _private(a, b=1):
    return a


class C:
    def __init__(self, a, size=4):
        self.a = a

    def method(self, a, scale=1.0):
        return a

    @staticmethod
    def build(a, fill=0):
        return a

    def _hidden(self, a, flag=False):
        return a


class _Hidden:
    def method(self, a, extra=None):
        return a
'''

CALLS = '''
from pkg.mod import C, f

f(1, 2)                      # sets b
f(1, d=5)                    # sets d
f(*[1, 2, 3])                # a starred argument sets b and c
f(1, **{"c": 3})             # a ** argument sets none
C(1).method(2, 3.0)          # the class call leaves size; method sets scale
C(1, size=2)                 # sets size
C.build(1)
'''


def _tree(root: Path) -> Path:
    (root / "src" / "pkg").mkdir(parents=True)
    (root / "src" / "pkg" / "mod.py").write_text(MODULE)
    for folder in ("tests", "bench", "tools"):
        (root / folder).mkdir()
    (root / "tests" / "test_calls.py").write_text(CALLS)
    (root / "bench" / "more.py").write_text("from pkg.mod import f\n"
                                            "f(0, c=1)\n")
    return root


def test_scan_counts_the_call_sites_that_set_each_optional_parameter(
        tmp_path):
    rows = [(d.where, d.name, p, n)
            for d, p, n in options.scan(_tree(tmp_path))]
    assert rows == [("src/pkg/mod.py:2", "f", "b", 2),
                    ("src/pkg/mod.py:2", "f", "c", 2),
                    ("src/pkg/mod.py:2", "f", "d", 1),
                    ("src/pkg/mod.py:13", "C", "size", 1),
                    ("src/pkg/mod.py:16", "method", "scale", 1),
                    ("src/pkg/mod.py:20", "build", "fill", 0)]


def test_main_names_the_parameters_no_call_site_sets_and_exits_0(
        tmp_path, capsys):
    assert options.main(["options.py", str(_tree(tmp_path))]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["2", "src/pkg/mod.py:2", "f(b)"]
    assert lines[6].split() == ["6", "optional", "public", "parameters"]
    assert [line.split() for line in lines[7:]] == [
        ["1", "set", "by", "no", "call", "site"],
        ["src/pkg/mod.py:20", "build(fill)"]]


def test_the_command_line_runs_from_the_repository_root(tmp_path):
    run = subprocess.run([sys.executable, str(_PATH)],
                         cwd=_tree(tmp_path), capture_output=True,
                         text=True)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.splitlines()[-2:] == [
        "     1  set by no call site", "        src/pkg/mod.py:20 build(fill)"]
