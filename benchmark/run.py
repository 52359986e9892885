"""nlmedium benchmark: four seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout (the program is imported from ``src/``):

    python3 benchmark/run.py --workload spectra --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 30 --trace 1

One process runs one workload as a single closed-loop client: each op starts
after the previous one and its check have finished.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs every op once untraced and once
traced, in alternating order, and prints the per-layer metrics and the
tracing overhead.  End-to-end times are scaled to a fixed host speed: each
op of the untraced run sits between two passes of a reference kernel, and
its latency is multiplied by ``REFERENCE_S`` over their mean; wall-clock
values are printed beside them.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A record with the environment, the latencies and the metrics
is written to ``.bench_out/``; the traced run also writes its spans there.
CLI artifacts go to a temporary directory under ``.bench_tmp/`` that is
removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_DIR = ROOT / ".bench_tmp"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("spectra", "dyson", "fwm", "oracles")
SETUP_TRIALS = 9  # fresh-process set-ups, each followed by two reference passes
REFERENCE_ROUNDS = 3000
# a typical reference pass on a 2-core Intel Xeon VM; a time scaled by
# REFERENCE_S / (measured pass) reads as seconds at that speed
REFERENCE_S = 0.032
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _import_program():
    """Import nlmedium from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import nlmedium

    if Path(nlmedium.__file__).resolve().parent != SRC / "nlmedium":
        raise ImportError(f"nlmedium was imported from {nlmedium.__file__}, not from {SRC}")
    return nlmedium


def _setup(args, workdir):
    """Import the program and build the workload up to its first op; returns (workload, op 0, seconds)."""
    t0 = time.perf_counter()
    _import_program()
    import workloads
    from tracing import LAYERS

    api = types.SimpleNamespace(**{name: importlib.import_module(f"nlmedium.{name}") for name in LAYERS})
    sizes = workloads.TINY if args.size == "tiny" else workloads.FULL
    workload = workloads.WORKLOADS[args.workload](args.seed, sizes, api, workdir)
    first = workload.make_op(0)
    return workload, first, time.perf_counter() - t0


def reference_pass() -> float:
    """Seconds taken by a fixed kernel that shares no code with nlmedium.

    The host's speed drifts by up to 1.6x over seconds to minutes.  Timings
    are scaled by ``REFERENCE_S`` over the passes taken next to them, which
    cancels the drift but not a change in the program.  Like the program,
    the kernel mixes interpreted Python with numpy calls on small arrays.
    """
    import numpy as np

    x = np.linspace(0.0, 1.0, 16)
    table, acc, h = {}, 0.0, 0
    t = time.perf_counter()
    for i in range(REFERENCE_ROUNDS):
        acc += float(np.sum(x * (i % 7)))
        for j in range(20):
            table[(i + j) & 255] = h
            h = (h * 31 + j) % 1000003
    return time.perf_counter() - t


def _setup_trials(args) -> tuple[list[float], list[float]]:
    """Set-up times of fresh processes, each importing and generating from scratch: (scaled, wall)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size]
    trials = [[float(v) for v in subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.split()]
              for _ in range(SETUP_TRIALS)]
    return [dt * REFERENCE_S / ref for dt, ref in trials], [dt for dt, _ in trials]


def _execute(workload, inp):
    """Run one op; returns (latency in s, output or None, error or None)."""
    t = time.perf_counter()
    try:
        out, err = workload.run(inp), None
    except Exception as exc:  # an op that raises is a failed op; the run goes on
        out, err = None, exc
    return time.perf_counter() - t, out, err


def _problems(workload, inp, out, err) -> list[str]:
    if err is not None:
        return [f"raised {type(err).__name__}: {err}"]
    return workload.check(inp, out)


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, samples beyond).

    Below 21 samples every such percentile lies under the median, or none
    exists; the tail cannot be resolved and the (upper) median is reported.
    """
    ordered = sorted(latencies)
    beyond = min(10, (len(ordered) - 1) // 2)
    idx = len(ordered) - 1 - beyond
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), beyond


def _loop(workload, first, seconds, body):
    """Closed loop: ops in seed order until the timed time reaches ``seconds``."""
    timed, i, inp = 0.0, 0, first
    while True:
        timed += body(i, inp)
        workload.cleanup(inp)
        i += 1
        if timed >= seconds:
            return
        inp = workload.make_op(i)


def run_untraced(args, workload, first, setup_main):
    latencies, walls, failures = [], [], []

    def body(i, inp):
        before = reference_pass()
        dt, out, err = _execute(workload, inp)
        walls.append(dt)
        latencies.append(dt * 2.0 * REFERENCE_S / (before + reference_pass()))
        problems = _problems(workload, inp, out, err)
        if problems:
            failures.append({"op": i, "problems": problems})
        return dt

    _loop(workload, first, args.seconds, body)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups, setup_walls = _setup_trials(args)
    attempted = len(latencies)
    tail, pct, beyond = _tail(latencies)
    wall_tail = _tail(walls)[0]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": ((attempted - len(failures)) / sum(latencies), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1e3 * tail, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups; wall {statistics.median(setup_walls):.4g} s",
        "ops_per_s": f"wall {(attempted - len(failures)) / sum(walls):.4g} 1/s",
        "latency_p50_ms": f"wall {1e3 * statistics.median(walls):.4g} ms",
        "latency_tail_ms": f"p{pct:.1f} of {attempted} ops, {beyond} beyond; wall {1e3 * wall_tail:.4g} ms",
    }
    detail = {"latencies_s": latencies, "wall_latencies_s": walls, "setups_s": setups,
              "wall_setups_s": setup_walls, "main_setup_wall_s": setup_main, "timed_wall_s": sum(walls),
              "failures": failures, "tail_percentile": pct, "tail_beyond": beyond}
    return attempted, failures, metrics, notes, detail


def run_traced(args, workload, first):
    from tracing import Tracer

    tracer = Tracer(workload.api)
    pairs, failures = [], []

    def body(i, inp):
        spent = 0.0
        times = {}
        # alternate which copy runs first, so warm caches favour neither
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.begin_op(i)
                tracer.install()
            try:
                dt, out, err = _execute(workload, inp)
            finally:
                tracer.uninstall()
            times[traced] = dt
            spent += dt
            problems = _problems(workload, inp, out, err)
            if problems:
                failures.append({"op": i, "traced": traced, "problems": problems})
        pairs.append((times[False], times[True]))
        return spent

    _loop(workload, first, args.seconds, body)
    metrics = tracer.layer_metrics()
    # Whichever copy runs first pays the op's cold caches, so the ratio is
    # biased one way on even ops and the other way on odd ones: take the
    # median of each half and their geometric mean.
    halves = [[t / u for u, t in pairs[start::2]] for start in (0, 1)]
    medians = [statistics.median(h) for h in halves if h]
    metrics["trace.overhead_ratio"] = (statistics.geometric_mean(medians) - 1.0, "1")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{args.workload}.npz")
    notes = {"trace.overhead_ratio": f"from {len(pairs)} op pairs"}
    detail = {"op_pairs_s": pairs, "failures": failures, "spans": len(tracer.span_start)}
    return 2 * len(pairs), failures, metrics, notes, detail


def environment(args) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "nlmedium").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_caps": {name: os.environ.get(name) for name in THREAD_CAPS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def run_one(args) -> int:
    TMP_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=TMP_DIR)
    try:
        try:
            workload, first, setup_main = _setup(args, workdir)
        except ImportError as exc:
            sys.stderr.write(f"error: cannot import the program: {exc}\n")
            return 2
        if args.setup_only:
            # the reference passes run once numpy is imported, after the timed set-up
            print(repr(setup_main), repr((reference_pass() + reference_pass()) / 2))
            return 0
        if args.trace:
            attempted, failures, metrics, notes, detail = run_traced(args, workload, first)
        else:
            attempted, failures, metrics, notes, detail = run_untraced(args, workload, first, setup_main)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_DIR.rmdir()  # only when no other run is using it

    env = environment(args)
    failed = len(failures)
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# {args.workload}: {attempted} ops attempted, {failed} failed")
    for failure in failures[:5]:
        print(f"# failed op {failure['op']}: {'; '.join(failure['problems'])}")
    shown = dict(metrics)
    if not args.trace:
        shown["fail_ratio"] = (failed / attempted, "1")
    for name, (value, unit) in shown.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{args.workload:8s} {name:32s} {value:14.6g} {unit}{note}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump(dict(result, env=env, fail_ratio=failed / attempted, notes=notes, detail=detail), fh, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 2
        results[name] = json.loads(lines[-1])
        status = max(status, proc.returncode)
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True, help="workload seed; fixes every input")
    parser.add_argument("--seconds", type=float, default=30.0, help="wall op time to accumulate")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test sizes")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # one client, one thread: BLAS and OpenMP pools would only add noise
    for name in THREAD_CAPS:
        os.environ[name] = "1"
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
