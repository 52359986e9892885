"""Smoke test of the benchmark itself, at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest -q benchmark/test_smoke.py

Every workload must print every metric that BENCHMARK.json registers, with
its unit, and fail no op; every checker must reject a tampered output.
"""

import argparse
import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

REGISTRY = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_printed_with_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    registered = REGISTRY["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in registered} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    table = {line.split()[1]: line.split()[2:4] for line in lines[:-1] if line.startswith(workload)}
    for m in registered:
        value, unit = table[m["name"]]
        assert unit == m["unit"] and math.isfinite(float(value))
    if not trace:
        assert table["fail_ratio"] == ["0", "1"]


def _tamper_spectra(inp, out):
    path = Path(inp["dir"]) / "chi3.json"
    payload = json.loads(path.read_text())
    payload["samples"][1]["chi3"][0][0] *= 1.0 + 1e-6
    path.write_text(json.dumps(payload))
    return out


def _tamper_dyson(inp, out):
    pi, dressed = out
    return dataclasses.replace(pi, error_estimate=math.nan), dressed


def _tamper_fwm(inp, out):
    return type(out)(lines=out.lines[:-1], tolerance=out.tolerance)


def _tamper_oracles(inp, out):
    fd, report = out
    return fd * (1.0 + 1e-5), report


TAMPER = {"spectra": _tamper_spectra, "dyson": _tamper_dyson, "fwm": _tamper_fwm, "oracles": _tamper_oracles}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_checker_rejects_tampered_output(workload, tmp_path):
    args = argparse.Namespace(workload=workload, seed=3, size="tiny")
    bench, inp, _ = run._setup(args, str(tmp_path))
    out = bench.run(inp)
    assert bench.check(inp, out) == []
    assert bench.check(inp, TAMPER[workload](inp, out))
