"""The four benchmark workloads: seeded inputs, the timed op, the checks.

Each workload is a closed loop over a seeded list of homogeneous ops.  Op
``i`` draws its inputs from ``numpy.random.default_rng([seed, i])``, so a
seed fixes the whole list and the program only ever sees generated inputs.
``run`` is the timed part and calls nlmedium only through ``api``, the
harness namespace the tracer rebinds.  ``check`` runs outside the timed
interval and returns the problems it found (an empty list is a pass); it
uses the untraced library only where it needs an independent reference.

Why each workload exists is written down in NOTES.md next to this file.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from nlmedium import medium as _medium
from nlmedium import nonlinear as _nonlinear
from nlmedium.displacement import FrequencyComb
from nlmedium.fieldspace import LoopQuadrature, PlaneWaveContext


@dataclass(frozen=True)
class Sizes:
    spectra_points: int = 4096
    spectra_quadruples: int = 64
    spectra_omegas: int = 64
    dyson_nodes: int = 8192
    fwm_lines: int = 8  # positive-frequency lines; mirroring doubles them
    oracle_ladder: int = 5


FULL = Sizes()
TINY = Sizes(
    spectra_points=1024,
    spectra_quadruples=8,
    spectra_omegas=8,
    dyson_nodes=1024,
    fwm_lines=2,
    oracle_ladder=3,
)

_POL = np.array([1.0, 0.0, 0.0])
_LOSSY = _medium.MediumParams(
    omega0=1.0, chi_s=1.0, alpha=0.5, rho=0.2, nu=_medium.NuConstant(0.1, 10.0), loop_cutoff=30.0
)


def _rel_dev(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))) / np.max(np.abs(b)))


class _Workload:
    """Seed, sizes, harness namespace and scratch directory of one run."""

    def __init__(self, seed: int, sizes: Sizes, api, workdir: str):
        self.seed, self.sizes, self.api, self.workdir = seed, sizes, api, workdir

    def cleanup(self, inp) -> None:
        """Drop what op ``inp`` left on disk, once it has been checked."""


class Spectra(_Workload):
    """Characterise one fresh seeded medium through the in-process CLI."""

    name = "spectra"
    grid_stop = 20.0
    lam = [0.25, 0.4, 0.35]

    def __init__(self, *args):
        super().__init__(*args)
        self.grid = np.linspace(0.0, self.grid_stop, self.sizes.spectra_points)
        self.nu_grid = np.linspace(0.0, 16.0, 400)

    def make_op(self, i: int) -> dict:
        rng = np.random.default_rng([self.seed, i])
        # Gaussian-tapered couplings within 5% of acceptance criterion 2's
        # medium.  Stronger coupling drives Re chi1 through zero inside the
        # kk-check window, where its relative-error criterion fails (NOTES.md).
        nu = rng.uniform(0.095, 0.105) * np.exp(-((self.nu_grid / rng.uniform(3.8, 4.2)) ** 2))
        medium = {
            "omega0": float(rng.uniform(0.95, 1.05)),
            "chi_s": float(rng.uniform(0.95, 1.05)),
            "alpha": 0.5,
            "rho": 0.05,
            "loop_cutoff": 25.0,
            "nu": {"type": "tabulated", "grid": self.nu_grid.tolist(), "values": nu.tolist()},
        }
        # quadruples sit on the chi1 grid so the check can read every chi1
        # factor of the Miller ratio from the op's own chi1 artifact
        lo, hi = np.searchsorted(self.grid, [0.1, 2.2])
        quads = []
        while len(quads) < self.sizes.spectra_quadruples:
            i1, i2, i3 = (int(v) for v in rng.integers(lo, hi, size=3))
            if i1 - i2 + i3 >= lo:
                quads.append((i1, i2, i3))
        opdir = os.path.join(self.workdir, f"op{i}")
        os.makedirs(opdir)
        config = {
            "medium": medium,
            "lambda": {"isotropic": self.lam},
            "grids": {
                "omega": {"start": 0.0, "stop": self.grid_stop, "n": self.sizes.spectra_points},
                "quadruples": [[float(self.grid[j]) for j in q] for q in quads],
            },
        }
        path = os.path.join(opdir, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        return {"dir": opdir, "config": path, "chi_s": medium["chi_s"], "quads": quads}

    def commands(self, inp) -> list[list[str]]:
        base = ["--config", inp["config"], "--out", inp["dir"]]
        omegas = f"0.05:2.0:{self.sizes.spectra_omegas}"
        return [
            base + ["--format", "csv", "chi1"],
            base + ["kk-check"],
            base + ["--format", "json", "chi3"],
            base + ["propagators", "--omega-grid", omegas, "--k", "0", "1.3"],
            base + ["wick-dump", "--order", "4"],
        ]

    def run(self, inp):
        with contextlib.redirect_stdout(io.StringIO()):
            return [self.api.cli.main(argv) for argv in self.commands(inp)]

    def check(self, inp, codes) -> list[str]:
        if codes != [0] * len(codes):
            return [f"exit codes {codes}"]
        problems = []

        def load(name):
            with open(os.path.join(inp["dir"], name)) as fh:
                return json.load(fh)

        if load("kk_check.json").get("pass") is not True:
            problems.append("kk-check did not pass")

        chi1 = np.empty((self.sizes.spectra_points, 3), dtype=complex)
        with open(os.path.join(inp["dir"], "chi1.csv")) as fh:
            rows = list(csv.reader(fh))[1:]
        if len(rows) != 9 * self.sizes.spectra_points:
            return problems + ["chi1: wrong row count"]
        diag = [(i // 9, r) for i, r in enumerate(rows) if r[1] in ("00", "11", "22")]
        for n, (i, row) in enumerate(diag):
            chi1[i, n % 3] = complex(float(row[2]), float(row[3]))
        if np.any(chi1[self.grid > 0].imag < -1e-12):
            problems.append("passivity: Im chi1 < -1e-12 at omega > 0")
        if np.max(np.abs(chi1[0] - inp["chi_s"])) > 1e-12:
            problems.append("static limit: chi1(0) != chi_s")

        ratios = []
        for (i1, i2, i3), sample in zip(inp["quads"], load("chi3.json")["samples"]):
            tensor = np.asarray([complex(re, im) for re, im in sample["chi3"]])
            factors = chi1[[i1, i2, i3, i1 - i2 + i3], 0]
            ratios.append(tensor / np.prod(factors))
        if len(ratios) != len(inp["quads"]) or _rel_dev(ratios, ratios[0]) > 1e-10:
            problems.append("Miller ratio not constant over the quadruples")

        if len(load("propagators.json")["samples"]) != 2 * self.sizes.spectra_omegas:
            problems.append("propagators: wrong sample count")
        if len(load("wick_order4.json")["terms"]) != 7:
            problems.append("wick catalog of order 4 does not have 7 terms")
        return problems

    def cleanup(self, inp) -> None:
        for name in os.listdir(inp["dir"]):
            os.remove(os.path.join(inp["dir"], name))
        os.rmdir(inp["dir"])


class Dyson(_Workload):
    """One (omega, k) sample of the one-loop dressed propagators on a fixed medium."""

    name = "dyson"
    medium = _LOSSY
    lam = _nonlinear.lambda_isotropic(0.25, 0.4, 0.35)

    def __init__(self, *args):
        super().__init__(*args)
        self.quadrature = LoopQuadrature(n_points=self.sizes.dyson_nodes, cutoff=12.0)

    def make_op(self, i: int) -> tuple[float, float]:
        rng = np.random.default_rng([self.seed, i])
        return float(rng.uniform(0.1, 2.0)), float(rng.choice([0.0, 1.3]))

    def run(self, inp):
        omega, k = inp
        fs = self.api.fieldspace
        pi = fs.self_energy(self.medium, self.lam, omega, self.quadrature)
        g0 = fs.tree_propagators(self.medium, PlaneWaveContext(k=k, polarization=_POL, omega=omega))
        return pi, fs.dyson_dress(g0, pi.value)

    def check(self, inp, out) -> list[str]:
        pi, dressed = out
        problems = []
        if not (np.all(np.isfinite(pi.value)) and math.isfinite(pi.error_estimate)):
            problems.append("self-energy or its error estimate is not finite")
        blocks = [getattr(g, b) for g in (dressed.single, dressed.resummed) for b in ("aa", "ax", "xa", "xx")]
        if not all(np.all(np.isfinite(b)) for b in blocks):
            problems.append("dressed propagators are not finite")
        return problems


class Fwm(_Workload):
    """Displacement of one evenly spaced, conjugate-closed comb."""

    name = "fwm"
    medium = _LOSSY
    lam = _nonlinear.lambda_isotropic(0.3, 0.2, 0.1)

    def make_op(self, i: int) -> dict:
        rng = np.random.default_rng([self.seed, i])
        spacing = float(rng.uniform(0.05, 0.15))
        # offset / spacing = n + f keeps every mixing product a distinct,
        # non-zero frequency: two products can only meet, or one reach zero,
        # where f is a multiple of 1/6 or 1/4, and f stays 0.036 away from those
        frac = float(rng.uniform(0.37, 0.46)) + float(rng.choice([0.0, 0.17]))
        offset = spacing * (int(rng.integers(1, 5)) + frac)
        n = self.sizes.fwm_lines
        amps = 0.05 * (rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3)))
        comb = FrequencyComb.from_lines([(offset + j * spacing, amps[j]) for j in range(n)])
        return {"comb": comb, "offset": offset, "spacing": spacing}

    def run(self, inp):
        return self.api.displacement.displacement(inp["comb"], self.medium, self.lam)

    def expected_frequencies(self, inp) -> list[float]:
        """Output frequencies enumerated from the comb's integer structure.

        Line ``j`` sits at ``s * (offset, j)`` with ``s = +-1``; an output
        carries ``(a, b)`` with ``a * offset + b * spacing``.  The linear term
        keeps the input lines, the cubic term adds every signed triple
        ``c1 + c2 - c3`` (both mixing channels give the same set).
        """
        n = self.sizes.fwm_lines
        lines = {(s, s * j) for s in (1, -1) for j in range(n)}
        coeffs = set(lines)
        for a1, b1 in lines:
            for a2, b2 in lines:
                for a3, b3 in lines:
                    coeffs.add((a1 + a2 - a3, b1 + b2 - b3))
        return sorted(math.fsum((a * inp["offset"], b * inp["spacing"])) for a, b in coeffs)

    def check(self, inp, out) -> list[str]:
        problems = []
        if not out.is_conjugate_closed():
            problems.append("output comb is not conjugate-closed")
        got = sorted(w for w, _ in out.lines)
        want = self.expected_frequencies(inp)
        if len(got) != len(want) or any(abs(g - w) > out.tolerance for g, w in zip(got, want)):
            problems.append(f"line set differs from the enumerated mixing frequencies ({len(got)} vs {len(want)})")
        return problems


class Oracles(_Workload):
    """One finite-difference chi3 extraction plus one Duffing drive ladder."""

    name = "oracles"
    medium = _medium.MediumParams(
        omega0=1.0, chi_s=1.0, alpha=0.5, rho=0.8, nu=_medium.NuConstant(0.1, 6.0), loop_cutoff=30.0
    )
    lam = _nonlinear.lambda_isotropic(0.05, 0.08, 0.05)

    def make_op(self, i: int) -> dict:
        rng = np.random.default_rng([self.seed, i])
        w1, w2, w3 = (float(v) for v in rng.uniform(0.1, 1.6, size=3))
        # drives stay clear of the omega0 / 3 guard of the reference
        return {"quad": (w1 - w2 + w3, w1, w2, w3), "drive": float(rng.uniform(0.20, 0.25))}

    def run(self, inp):
        fd = self.api.displacement.extract_chi3_fd(self.medium, self.lam, *inp["quad"], 1e-3)
        report = self.api.duffing.compare_chi3(self.medium, self.lam, inp["drive"], ladder=self.sizes.oracle_ladder)
        return fd, report

    def check(self, inp, out) -> list[str]:
        fd, report = out
        problems = []
        formula = _nonlinear.chi3(self.medium, self.lam, *inp["quad"])
        if _rel_dev(fd, formula) > 1e-6:
            problems.append("finite-difference chi3 departs from the formula by more than 1e-6")
        if not report.to_dict()["tolerance_pass"]:
            problems.append("Duffing comparison outside tolerance")
        return problems


WORKLOADS = {w.name: w for w in (Spectra, Dyson, Fwm, Oracles)}
