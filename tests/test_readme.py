"""The README's examples run, and print what the README shows."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from trendcomp.cli import EXIT_OK, EXIT_PARSE, main

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"```(\w*)\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.DOTALL)


def block(lang, first_line):
    """The one fenced block of ``lang`` whose first line starts with ``first_line``."""
    found = [body for tag, body in BLOCKS if tag == lang and body.startswith(first_line)]
    assert len(found) == 1, f"expected one {lang} block starting with {first_line!r}"
    return found[0]


def session(first_line):
    """The argv and the expected stdout of a ``$ trendcomp ...`` shell block."""
    command, _, shown = block("sh", first_line).partition("\n")
    argv = shlex.split(command.removeprefix("$ "))
    assert argv[0] == "trendcomp"
    return argv[1:], shown


def test_quick_start_runs(capsys):
    exec(block("python", "from trendcomp import"), {})
    assert capsys.readouterr().out


def test_analyze_example_prints_the_shown_report(capsys, monkeypatch):
    argv, shown = session("$ trendcomp analyze")
    monkeypatch.chdir(ROOT)
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == shown


def test_module_entry_point_prints_the_shown_report(tmp_path):
    argv, shown = session("$ trendcomp analyze")

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "trendcomp", *args],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True,
            text=True,
            timeout=120,
        )

    done = run(*argv)
    assert (done.returncode, done.stdout, done.stderr) == (EXIT_OK, shown, "")
    bad = tmp_path / "bad.csv"
    bad.write_text("dose,n,responders\n0,34,2\n50,35,six\n")
    done = run("analyze", "--input", str(bad))
    assert (done.returncode, done.stdout) == (EXIT_PARSE, "")
    assert done.stderr.startswith("error: line 3: ")


def test_simulate_example_prints_the_shown_table(capsys, tmp_path):
    (tmp_path / "study.yaml").write_text(block("yaml", "# study.yaml"))
    argv, shown = session("$ trendcomp simulate")
    argv[argv.index("--config") + 1] = str(tmp_path / "study.yaml")
    # the README promises the same stdout at every parallelism; one worker is cheapest
    argv[argv.index("--parallelism") + 1] = "1"
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == shown

