"""Smoke test of the artifact regression harness, ``tools/artifacts.py``, at its tiny sizes."""

import importlib.util
import io
import json
import pathlib
import shutil

import pytest

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "artifacts.py"
_SPEC = importlib.util.spec_from_file_location("artifacts", _TOOL)
artifacts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(artifacts)


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    root = tmp_path_factory.mktemp("build")
    return root, artifacts.build(root, tiny=True)


def test_build_runs_every_command_in_both_formats(built):
    root, runs = built
    assert len(runs) == len(artifacts.configs()) * len(artifacts.COMMANDS) * 2
    assert runs["readme/chi1-csv"] == {"exit": 0, "stderr": ""}
    assert (root / "readme" / "chi1-csv" / "chi1.csv").is_file()
    assert (root / "readme" / "dyson-json" / "dyson.json").is_file()
    # an error path is recorded with its exit code and message
    assert runs["singular_loop/dyson-json"] == {
        "exit": 3,
        "stderr": "error: k = 0 photon kernel singular at loop node |W| = 0.5\n",
    }
    assert json.loads((root / "runs.json").read_text())["runs"] == runs


def test_compare_a_build_with_itself(built):
    root, _ = built
    out = io.StringIO()
    assert artifacts.compare(root, root, out)
    assert "0 differ" in out.getvalue()
    assert "0 with a changed exit code or stderr" in out.getvalue()


def test_compare_reports_deviations(built, tmp_path):
    root, _ = built
    other = tmp_path / "other"
    shutil.copytree(root, other)
    path = other / "readme" / "propagators-json" / "propagators.json"
    data = json.loads(path.read_text())
    data["samples"][0]["AA"][0][0][0] *= 1.0 + 2.0**-40
    path.write_text(json.dumps(data))
    runs = json.loads((other / "runs.json").read_text())
    runs["runs"]["readme/chi1-csv"]["exit"] = 3
    (other / "runs.json").write_text(json.dumps(runs))
    out = io.StringIO()
    assert not artifacts.compare(root, other, out)
    report = out.getvalue()
    assert "readme/propagators-json/propagators.json: differs" in report
    line = next(line for line in report.splitlines() if line.strip().startswith("samples.AA:"))
    assert line.strip().startswith("samples.AA: 1 of ")
    assert "max rel 9.09e-13" in line
    assert not any(line.strip().startswith("samples.XX") for line in report.splitlines())
    assert "run readme/chi1-csv:" in report
