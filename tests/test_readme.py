"""The README's examples run, and print what the README shows."""

import re
import shlex
from pathlib import Path

from trendcomp.cli import EXIT_OK, main

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


def test_simulate_example_prints_the_shown_table(capsys, tmp_path):
    (tmp_path / "study.yaml").write_text(block("yaml", "# study.yaml"))
    argv, shown = session("$ trendcomp simulate")
    argv[argv.index("--config") + 1] = str(tmp_path / "study.yaml")
    # the README promises the same stdout at every parallelism; one worker is cheapest
    argv[argv.index("--parallelism") + 1] = "1"
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == shown

