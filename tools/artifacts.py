"""Artifact regression harness: build every CLI artifact, then compare two builds.

    python tools/artifacts.py build DIR [--tiny]
    python tools/artifacts.py compare A B

``build`` runs each of the eight ``nlmedium`` commands in both formats on
a fixed set of configs, through ``nlmedium.cli.main`` only.  It writes
each run's artifacts under ``DIR/<config>/<command>-<format>/``, and the
exit code and stderr of every run to ``DIR/runs.json``.  It runs
whichever ``nlmedium`` Python imports, so a build of another tree is
``PYTHONPATH=<tree>/src python tools/artifacts.py build DIR``; ``runs.json``
records which package ran.  ``--tiny`` shrinks the grids, loops and drive
ladder for a quick run.

The configs:

- ``readme``: README's config, with k in {0, 1.3};
- ``anisotropic``: a random complex pair-symmetric coupling table, eps0
  1.3, alpha 0.37, k in {0, 1.3};
- ``tabulated``: a Gaussian-tapered tabulated coupling, on an omega grid
  [0, 20] of 4096 points that holds omega = 0;
- ``lossless64`` and ``lossless65``: a lossless medium on a 64- and a
  65-point grid over [0, 2]; the 65-point grid puts omega = 1.0 on the
  response pole;
- ``pole_dyson``: the lossy medium whose loop integrand has a real pole at
  |W| = 10.46, inside the loop window;
- ``vacuum``: g = 0;
- ``singular_loop``: a lossless medium with a loop node on a zero of
  eps0 - g alpha**2 gamma(W), where ``dyson`` exits 3.

``compare`` reports, per artifact file, whether it is byte-identical in
both builds.  For a file that differs it parses both copies (JSON, or CSV
by column) and reports, for each numeric field, how many values differ
and the largest absolute and relative deviation; the relative deviation
of a value pair is |a - b| / max(|a|, |b|).  It also reports every run
whose exit code or stderr changed.  It exits 0 when everything is
identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys

import numpy as np

COMMANDS = ("chi1", "chi3", "kk-check", "propagators", "dyson", "wick-dump", "displacement", "duffing-compare")
FORMATS = ("csv", "json")

_COMB = [
    {"omega": 0.3, "amp": [[0.01, 0.0], [0.0, 0.0], [0.0, 0.0]]},
    {"omega": 0.5, "amp": [[0.0, 0.01], [0.005, 0.0], [0.0, 0.0]]},
]


def _grid(start, stop, n):
    return {"start": start, "stop": stop, "n": n}


def _anisotropic_table() -> list:
    rng = np.random.default_rng(8)
    lam = rng.normal(size=(3, 3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3, 3))
    lam = 0.05 * (lam + lam.transpose(2, 3, 0, 1))
    return [[float(v.real), float(v.imag)] for v in lam.reshape(-1)]


def configs(tiny: bool = False) -> dict:
    """The harness configs by name, without their ``outputs`` section."""

    def size(full, small):
        return small if tiny else full

    lam = {"isotropic": [0.05, 0.08, 0.05]}
    drive = {"freq": 0.24, "ladder": size(5, 3)}
    readme_medium = {
        "omega0": 1.0, "chi_s": 1.0, "alpha": 0.5, "rho": 0.8,
        "nu": {"type": "constant", "nu0": 0.1, "omega_cut": 6.0},
        "g": 1, "eps0": 1.0, "mu0": 1.0, "loop_cutoff": 30.0,
    }
    lossless = {"omega0": 1.0, "chi_s": 1.0, "alpha": 0.5, "rho": 1.0, "nu": {"type": "zero"}, "loop_cutoff": 30.0}
    nu_grid = np.linspace(0.0, 16.0, 400)
    tabulated = {
        "omega0": 1.0, "chi_s": 1.0, "alpha": 0.5, "rho": 0.05, "loop_cutoff": 25.0,
        "nu": {"type": "tabulated", "grid": nu_grid.tolist(), "values": (0.1 * np.exp(-((nu_grid / 4.0) ** 2))).tolist()},
    }
    lossy = {
        "omega0": 1.0, "chi_s": 1.0, "alpha": 0.5, "rho": 0.2,
        "nu": {"type": "constant", "nu0": 0.1, "omega_cut": 10.0}, "loop_cutoff": 30.0,
    }
    k_both = [0.0, 1.3]
    return {
        "readme": {
            "medium": readme_medium,
            "lambda": lam,
            "grids": {"omega": _grid(0.0, 2.0, size(2049, 33)), "k": k_both, "quadruples": [[0.4, 0.15, 0.7]]},
            "loop": {"n_points": size(16384, 2048), "cutoff": 12.0},
            "drive": drive,
            "seed": 7,
        },
        "anisotropic": {
            "medium": dict(readme_medium, eps0=1.3, alpha=0.37),
            "lambda": {"table": _anisotropic_table()},
            "grids": {"omega": _grid(0.0, 2.0, size(257, 17)), "k": k_both},
            "loop": {"n_points": size(4096, 2048), "cutoff": 12.0},
            "drive": drive,
        },
        "tabulated": {
            "medium": tabulated,
            "lambda": lam,
            "grids": {"omega": _grid(0.0, 20.0, size(4096, 513)), "k": [0.0]},
            "loop": {"n_points": size(4096, 2048), "cutoff": 12.0},
            "drive": drive,
        },
        "lossless64": {
            "medium": lossless,
            "lambda": lam,
            "grids": {"omega": _grid(0.0, 2.0, size(64, 16)), "k": k_both},
            "loop": {"n_points": size(1024, 256), "cutoff": 0.5},
            "drive": drive,
        },
        "lossless65": {
            "medium": lossless,
            "lambda": lam,
            "grids": {"omega": _grid(0.0, 2.0, size(65, 17)), "k": k_both},
            "loop": {"n_points": size(1024, 256), "cutoff": 0.5},
            "drive": drive,
        },
        "pole_dyson": {
            "medium": lossy,
            "lambda": {"isotropic": [0.25, 0.4, 0.35]},
            "grids": {"omega": _grid(0.1, 2.0, size(64, 16)), "k": k_both},
            "loop": {"n_points": size(8192, 2048), "cutoff": 12.0},
            "drive": drive,
        },
        "vacuum": {
            "medium": dict(lossless, g=0),
            "lambda": lam,
            "grids": {"omega": _grid(0.0, 2.0, size(65, 17)), "k": k_both},
            "loop": {"n_points": size(1024, 256), "cutoff": 10.0},
            "drive": drive,
        },
        "singular_loop": {
            "medium": dict(lossless, chi_s=3.0),
            "lambda": {"isotropic": [0.25, 0.4, 0.35]},
            "grids": {"omega": _grid(0.1, 0.3, 3)},
            "loop": {"n_points": 97, "cutoff": 0.75},
            "drive": drive,
        },
    }


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)


def build(root, tiny: bool = False) -> dict:
    """Write every artifact of the harness configs under ``root``; returns the run records."""
    from nlmedium import cli

    root = os.path.abspath(root)
    os.makedirs(root, exist_ok=True)
    runs = {}
    for name, cfg in configs(tiny).items():
        cdir = os.path.join(root, name)
        os.makedirs(cdir, exist_ok=True)
        config_path, comb_path = os.path.join(cdir, "config.json"), os.path.join(cdir, "comb.json")
        _write_json(config_path, cfg)
        _write_json(comb_path, _COMB)
        for command in COMMANDS:
            extra = {"wick-dump": ["--order", "4"], "displacement": ["--in", comb_path]}.get(command, [])
            for fmt in FORMATS:
                run_id = f"{name}/{command}-{fmt}"
                argv = ["--config", config_path, "--out", os.path.join(root, run_id), "--format", fmt, command, *extra]
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                runs[run_id] = {"exit": code, "stderr": err.getvalue().replace(root, "DIR")}
    _write_json(os.path.join(root, "runs.json"), {"nlmedium": os.path.dirname(cli.__file__), "runs": runs})
    return runs


def _artifacts(root) -> set:
    """Relative paths of the artifact files under ``root``."""
    found = set()
    for name in configs():
        for dirpath, _, files in os.walk(os.path.join(root, name)):
            for fname in files:
                path = os.path.relpath(os.path.join(dirpath, fname), root)
                if os.path.dirname(path) != name:  # config.json and comb.json are inputs
                    found.add(path)
    return found


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _walk(a, b, path, fields, mismatches) -> None:
    """Collect numeric leaf pairs of two parsed JSON values by field path."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            _walk(a[key], b[key], f"{path}.{key}" if path else key, fields, mismatches)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            _walk(x, y, path, fields, mismatches)
    elif _is_number(a) and _is_number(b):
        fields.setdefault(path, []).append((float(a), float(b)))
    elif a != b:
        mismatches.add(path or "(top level)")


def _csv_fields(text_a, text_b, fields, mismatches) -> None:
    rows_a, rows_b = list(csv.reader(io.StringIO(text_a))), list(csv.reader(io.StringIO(text_b)))
    if len(rows_a) != len(rows_b) or rows_a[:1] != rows_b[:1]:
        mismatches.add("(table shape or header)")
        return
    header = rows_a[0]
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        for column, x, y in zip(header, row_a, row_b):
            try:
                fields.setdefault(column, []).append((float(x), float(y)))
            except ValueError:
                if x != y:
                    mismatches.add(column)


def deviations(path_a, path_b) -> tuple:
    """``({field: (n_bits, n_values, max_abs, max_rel, max_value)}, mismatched fields)`` of two artifact files.

    ``n_bits`` counts the value pairs whose bits differ (a sign of zero
    included) and ``max_value`` is the field's largest magnitude.
    """
    with open(path_a) as fh:
        text_a = fh.read()
    with open(path_b) as fh:
        text_b = fh.read()
    fields, mismatches = {}, set()
    if path_a.endswith(".csv"):
        _csv_fields(text_a, text_b, fields, mismatches)
    else:
        _walk(json.loads(text_a), json.loads(text_b), "", fields, mismatches)
    report = {}
    for field, pairs in fields.items():
        a, b = np.asarray(pairs).T
        same = ((a == b) & (np.signbit(a) == np.signbit(b))) | (np.isnan(a) & np.isnan(b))
        diff = np.where(same, 0.0, np.abs(a - b))
        top = np.maximum(np.abs(a), np.abs(b))
        with np.errstate(invalid="ignore", divide="ignore"):
            rel = np.where(diff > 0.0, diff / top, 0.0)
        n_bits = int(np.count_nonzero(~same))
        report[field] = (n_bits, a.size, float(np.max(diff)), float(np.max(rel)), float(np.nanmax(top)))
    return report, sorted(mismatches)


def compare(root_a, root_b, out=sys.stdout) -> bool:
    """Print the comparison of two builds; True when they are identical."""
    identical = True
    files_a, files_b = _artifacts(root_a), _artifacts(root_b)
    counts = {"identical": 0, "differ": 0}
    for rel in sorted(files_a | files_b):
        if rel not in files_a or rel not in files_b:
            out.write(f"{rel}: only in {root_a if rel in files_a else root_b}\n")
            identical = False
            continue
        path_a, path_b = os.path.join(root_a, rel), os.path.join(root_b, rel)
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            if fa.read() == fb.read():
                counts["identical"] += 1
                continue
        counts["differ"] += 1
        identical = False
        report, mismatches = deviations(path_a, path_b)
        out.write(f"{rel}: differs\n")
        for field, (n_bits, n, max_abs, max_rel, max_value) in sorted(report.items()):
            if n_bits:
                out.write(
                    f"    {field}: {n_bits} of {n} values differ in their bits; max abs {max_abs:.3g},"
                    f" max rel {max_rel:.3g}, largest |value| {max_value:.3g}\n"
                )
        for field in mismatches:
            out.write(f"    {field}: structure or text differs\n")
    out.write(f"files: {counts['identical']} byte-identical, {counts['differ']} differ\n")
    with open(os.path.join(root_a, "runs.json")) as fh:
        runs_a = json.load(fh)["runs"]
    with open(os.path.join(root_b, "runs.json")) as fh:
        runs_b = json.load(fh)["runs"]
    changed = 0
    for run_id in sorted(runs_a.keys() | runs_b.keys()):
        a, b = runs_a.get(run_id), runs_b.get(run_id)
        if a != b:
            changed += 1
            out.write(f"run {run_id}: {a} -> {b}\n")
    out.write(f"runs: {len(runs_a)} and {len(runs_b)}, {changed} with a changed exit code or stderr\n")
    return identical and changed == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="action", required=True)
    p_build = sub.add_parser("build", help="write every artifact under DIR")
    p_build.add_argument("dir")
    p_build.add_argument("--tiny", action="store_true", help="small grids, loops and ladders")
    p_compare = sub.add_parser("compare", help="compare two builds")
    p_compare.add_argument("a")
    p_compare.add_argument("b")
    args = parser.parse_args(argv)
    if args.action == "build":
        runs = build(args.dir, tiny=args.tiny)
        failed = sum(1 for run in runs.values() if run["exit"] != 0)
        print(f"{len(runs)} runs, {failed} with a non-zero exit code")
        return 0
    return 0 if compare(args.a, args.b) else 1


if __name__ == "__main__":
    sys.exit(main())
