"""The README's quick start and its lists of the package's API exceptions
hold for the code as it is."""

import re
import shlex
import shutil
from pathlib import Path

from esbsim.cli import main

from test_layering import API, API_PARAMETERS

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _block(after: str, fence: str) -> str:
    """The text of the first block fenced by `fence` after the text `after`."""
    start = README.index(fence + "\n", README.index(after)) + len(fence) + 1
    return README[start : README.index("```\n", start)]


def _listed_today(table: str) -> set[str]:
    """The names the README lists as in `table` today: "`table` ... (today: `a`, `b` and `c`)"."""
    text = " ".join(README.split())
    match = re.search(rf"`{table}`[^(]*\(today: ((?:`[^`]+`(?:, | and )?)+)\)", text)
    return set(re.findall(r"`([^`]+)`", match.group(1)))


def test_the_quick_start_runs_as_written_and_the_api_lists_are_the_tests(tmp_path, monkeypatch, capsys):
    shutil.copy(ROOT / "examples.cfg", tmp_path)
    monkeypatch.chdir(tmp_path)
    printed = {}
    for line in _block("## Quick start", "```sh").splitlines():
        if line.startswith("esbsim "):
            argv = shlex.split(line)[1:]
            assert main(argv) == 0, line
            printed[argv[0]] = capsys.readouterr().out
    assert sorted(printed) == ["calibrate", "compare-ble", "report", "simulate", "sweep"]
    shown = _block("which prints (and writes to `cmp/compare.txt`):", "```")
    assert printed["compare-ble"] == shown
    assert (tmp_path / "cmp" / "compare.txt").read_text(encoding="utf-8") == shown
    # the exceptions to tests/test_layering.py's rules that the README names
    assert _listed_today("API") == set(API)
    assert _listed_today("API_PARAMETERS") == set(API_PARAMETERS)
