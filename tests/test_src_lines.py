import importlib.util
import subprocess
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps the line

# a comment line


def f(x):
    """One-line docstring."""
    text = """a string that is
    not a docstring"""
    return math.sqrt(x) + len(text)


class C:
    """Class
    docstring."""
    y = (1,
         2)
'''


def test_count_lines_drops_docstrings_comments_and_blanks():
    raw, code = src_lines.count_lines(SOURCE)
    assert raw == 20
    # import, def, text = (2 lines), return, class, y = (2 lines)
    assert code == 8


def test_main_prints_every_file_and_a_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "a.py").write_text("x = 1\n\n")
    (tmp_path / "pkg" / "b.py").write_text(SOURCE)
    assert src_lines.main(["src_lines.py", str(tmp_path)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [r.split()[:2] for r in rows] == [["2", "1"], ["20", "8"],
                                            ["22", "9"]]
    assert rows[-1].endswith("total")


def test_against_prints_each_file_at_a_revision_and_now(tmp_path, capsys):
    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t",
                        "-c", "user.email=t@example.com",
                        "-c", "commit.gpgsign=false", *args],
                       check=True, capture_output=True)

    src = tmp_path / "src"
    (src / "pkg").mkdir(parents=True)
    (src / "kept.py").write_text("x = 1\n")
    (src / "gone.py").write_text("a = 1\nb = 2\n")
    (src / "pkg" / "b.py").write_text(SOURCE)
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "first")
    (src / "kept.py").write_text("x = 1\ny = 2\nz = 3\n")
    (src / "gone.py").unlink()
    (src / "new.py").write_text("# only a comment\nw = 0\n")
    assert src_lines.main(["src_lines.py", "--against", "HEAD",
                           str(src)]) == 0
    rows = [r.split() for r in capsys.readouterr().out.splitlines()]
    assert rows == [["2", "0", "-2", str(src / "gone.py")],
                    ["1", "3", "+2", str(src / "kept.py")],
                    ["0", "1", "+1", str(src / "new.py")],
                    ["8", "8", "+0", str(src / "pkg" / "b.py")],
                    ["11", "12", "+1", "total"]]


def _commit_one_file(root: Path) -> Path:
    def git(*args):
        subprocess.run(["git", "-C", str(root), "-c", "user.name=t",
                        "-c", "user.email=t@example.com",
                        "-c", "commit.gpgsign=false", *args],
                       check=True, capture_output=True)

    src = root / "src"
    src.mkdir()
    (src / "a.py").write_text("x = 1\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "first")
    return src


def test_against_an_unknown_revision_prints_one_line_and_exits_2(tmp_path,
                                                                 capsys):
    src = _commit_one_file(tmp_path)
    assert src_lines.main(["src_lines.py", "--against", "no-such-rev",
                           str(src)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "cannot read revision 'no-such-rev'" in err


def test_against_a_root_outside_a_work_tree_exits_2(tmp_path, monkeypatch,
                                                    capsys):
    # git looks no higher than tmp_path for a repository
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.py").write_text("x = 1\n")
    assert src_lines.main(["src_lines.py", "--against", "HEAD",
                           str(src)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "cannot read revision 'HEAD'" in err


def test_against_from_the_command_line_exits_2_without_a_traceback(
        tmp_path):
    src = _commit_one_file(tmp_path)
    run = subprocess.run([sys.executable, str(_PATH), "--against",
                          "no-such-rev", str(src)],
                         capture_output=True, text=True)
    assert run.returncode == 2
    assert run.stdout == ""
    assert "Traceback" not in run.stderr
    assert len(run.stderr.splitlines()) == 1
