"""The README's library quick start runs as written against the package's API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_block(heading: str, language: str) -> str:
    """The first ``language`` code block under the ``## heading`` section."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.search(rf"^```{language}\n(.*?)^```$", section, re.M | re.S).group(1)


def test_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(fenced_block("Library quick start", "python"), str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in printed] == ["acc", "d_sp"]
