"""README's CLI block runs as written, on README's example config, and so does its library quick start."""

import json
import pathlib
import re
import shlex

import pytest

from nlmedium.cli import EXIT_OK, main

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(after: str, lang: str) -> str:
    match = re.search(re.escape(after) + r".*?```" + lang + r"\n(.*?)```", README, re.S)
    assert match, f"no {lang} block after {after!r} in README"
    return match.group(1)


def _cli_lines():
    lines = []
    for line in _block("## CLI", "sh").splitlines():
        command = line.split("#", 1)[0].strip()
        if command:
            lines.append(command)
    return lines


def test_readme_lists_every_command():
    commands = {shlex.split(line)[3] for line in _cli_lines()}
    assert commands == {
        "chi1",
        "chi3",
        "kk-check",
        "propagators",
        "dyson",
        "wick-dump",
        "displacement",
        "duffing-compare",
    }


@pytest.mark.parametrize("line", _cli_lines(), ids=lambda line: shlex.split(line)[3])
def test_readme_cli_line_runs(line, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(_block("### Config schema", "json"))
    (tmp_path / "comb.json").write_text(_block("`comb.json`", "json"))
    argv = shlex.split(line)
    assert argv[0] == "nlmedium"
    assert main(argv[1:]) == EXIT_OK
    if argv[3] == "kk-check":
        report = json.loads((tmp_path / "out" / "kk_check.json").read_text())
        assert report["pass"] is True


def test_readme_library_quick_start_runs():
    namespace = {}
    exec(_block("## Library quick start", "python"), namespace)
    assert namespace["x3s"].shape == (6, 3, 3, 3, 3)
