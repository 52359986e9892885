"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output).  Criteria are property- and oracle-based: independent
brute-force enumerations, closed forms, Monte-Carlo checks, and the
time-domain oscillator all cross-check the production code paths.
"""

import math
import time
from collections import Counter
from types import SimpleNamespace

import numpy as np

from conftest import naive_displacement_line
from nlmedium.displacement import FrequencyComb, displacement, extract_chi3_fd
from nlmedium.duffing import compare_chi3
from nlmedium.errors import LoopConvergenceError
from nlmedium.fieldspace import LoopQuadrature, MeanField, PlaneWaveContext, dyson_dress, self_energy, tree_propagators
from nlmedium.medium import MediumParams, NuConstant, NuTabulated, NuZero, chi1, kk_reconstruct
from nlmedium.nonlinear import chi3, lambda0_tensor, lambda_isotropic, miller_ratio, source_dressed_tensors
from nlmedium.wick import (
    EvaluationContext,
    assemble_polynomial,
    derivative_terms,
    evaluate_term,
    isserlis_oracle,
    prune_vacuum_bubbles,
    quartic_constraint,
)

QUARTIC_PATTERN = ("plain", "star", "plain", "star")


def report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {number:02d} {status} - {name}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {number}: {name} {detail}"


def test_criterion_01_static_limit():
    lossless = MediumParams(omega0=1.3, chi_s=0.85, alpha=0.5, rho=1.0, nu=NuZero(), loop_cutoff=30.0)
    err_lossless = abs(chi1(lossless, 0.0) - lossless.chi_s)
    weak = MediumParams(
        omega0=1.3, chi_s=0.85, alpha=0.5, rho=1.0, nu=NuConstant(1e-3, 10.0), loop_cutoff=30.0
    )
    err_weak = abs(chi1(weak, 0.0) - weak.chi_s)
    report(
        1,
        "static limit chi1(0) = chi_s",
        err_lossless < 1e-12 and err_weak < 1e-6,
        f"lossless err {err_lossless:.2e}, nu0=1e-3 err {err_weak:.2e}",
    )


def test_criterion_02_kramers_kronig_closure():
    # smooth tabulated coupling with peak nu0 = 0.1: a sharp-cutoff flat
    # coupling has a logarithmic kink at its support edge that no finite
    # grid reconstructs to 1e-3 (see the decisions ledger)
    grid_nu = np.linspace(0.0, 16.0, 400)
    med = MediumParams(
        omega0=1.0,
        chi_s=1.0,
        alpha=0.5,
        rho=0.05,
        nu=NuTabulated(grid_nu, 0.1 * np.exp(-((grid_nu / 4.0) ** 2))),
        loop_cutoff=25.0,
    )
    grid = np.linspace(0.0, 20.0, 4096)
    vals = chi1(med, grid)
    recon = kk_reconstruct(grid, vals.imag)
    n = grid.size
    interior = slice(int(0.1 * n), int(0.9 * n))
    rel = np.abs(recon[interior] - vals.real[interior]) / np.abs(vals.real[interior])
    report(2, "Kramers-Kronig closure on 4096-point grid", float(np.max(rel)) < 1e-3, f"max rel {np.max(rel):.2e}")


def test_criterion_03_passivity_sweep():
    rng = np.random.default_rng(303)
    worst = np.inf
    for _ in range(10):
        w0 = rng.uniform(0.5, 2.0)
        chi_s = rng.uniform(0.3, 2.0)
        nu0 = rng.uniform(0.01, 0.3)
        med = MediumParams(
            omega0=w0, chi_s=chi_s, alpha=0.5, rho=0.5, nu=NuConstant(nu0, 8.0 * w0), loop_cutoff=20.0 * w0
        )
        for w in rng.uniform(0.01, 6.0 * w0, size=8):
            worst = min(worst, chi1(med, float(w)).imag)
    report(3, "passivity Im chi1 >= -1e-12 across random sweep", worst >= -1e-12, f"min Im {worst:.2e}")


def test_criterion_04_wick_catalog_and_oracles():
    terms = derivative_terms(4, QUARTIC_PATTERN)
    counts = Counter(t.n_contractions for t in terms)
    structure_ok = len(terms) == 7 and counts == Counter({0: 1, 1: 4, 2: 2})

    rng = np.random.default_rng(404)
    max_rel = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 5))
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        cov = a @ a.conj().T
        mu = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        var = rng.integers(0, dim, size=4)
        monomial = [(int(var[i]), bool(i % 2)) for i in range(4)]
        oracle = isserlis_oracle(mu, cov, monomial)
        scale = 1.0 / 0.5j
        means = {
            i: (mu[var[i]] if i % 2 == 0 else np.conj(mu[var[i]])) * scale for i in range(4)
        }
        kernels = {(i, j): cov[var[i], var[j]] * scale for i in (0, 2) for j in (1, 3)}
        ctx = EvaluationContext(means=means, kernels=kernels, freqs={i: 0.0 for i in range(4)})
        total = sum(evaluate_term(t, ctx) for t in terms)
        max_rel = max(max_rel, abs(total - oracle) / max(abs(oracle), 1e-30))
    oracle_ok = max_rel < 1e-10

    # Monte-Carlo cross-check, 1e6 samples, 5 sigma
    dim = 3
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    cov = a @ a.conj().T
    mu = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    monomial = [(0, False), (1, True), (2, False), (1, True)]
    exact = isserlis_oracle(mu, cov, monomial)
    n = 1_000_000
    chol = np.linalg.cholesky(cov + 1e-12 * np.eye(dim))
    noise = (rng.normal(size=(n, dim)) + 1j * rng.normal(size=(n, dim))) / np.sqrt(2.0)
    z = mu + noise @ chol.T
    samples = z[:, 0] * np.conj(z[:, 1]) * z[:, 2] * np.conj(z[:, 1])
    sigma = samples.std() / math.sqrt(n)
    mc_dev = abs(samples.mean() - exact)
    mc_ok = mc_dev < 5.0 * sigma
    report(
        4,
        "Wick catalog vs Isserlis and Monte-Carlo",
        structure_ok and oracle_ok and mc_ok,
        f"catalog rel {max_rel:.2e}, MC dev {mc_dev:.2e} vs 5sigma {5*sigma:.2e}",
    )


def test_criterion_05_bubble_pruning_and_polynomial():
    terms = derivative_terms(4, QUARTIC_PATTERN)
    pruned = prune_vacuum_bubbles(terms, quartic_constraint(4))
    pruning_ok = len(pruned) == 5 and all(t.n_contractions < 2 for t in pruned)

    med = MediumParams(omega0=1.0, chi_s=1.0, alpha=0.5, rho=0.2, nu=NuConstant(0.1, 10.0), loop_cutoff=30.0)
    lam0 = lambda0_tensor(lambda_isotropic(0.4, 0.2, 0.3), med, 0.4, 0.4, 0.7, 0.7)
    rng = np.random.default_rng(505)
    f = rng.normal(size=3) + 1j * rng.normal(size=3)
    tensors = source_dressed_tensors(lam0, med.alpha, f)
    quad = np.asarray([0.4, 0.4, 0.7, 0.7])
    mf = MeanField(
        freq_grid=quad,
        m=rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3)),
        m_prime=rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3)),
    )
    pg = SimpleNamespace(freq_grid=quad, values=rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3)))
    poly = assemble_polynomial(tensors, mf, pg)
    coeffs = {
        "lambda0_ffff": {t.coefficient for t in poly.p0},
        "xi": {t.coefficient for t in poly.p1},
        "phi1": {t.coefficient for t in poly.p2 if t.label == "phi1"},
        "phi2": {t.coefficient for t in poly.p2 if t.label.startswith("phi2")},
        "delta": {t.coefficient for t in poly.p3},
        "lambda": {t.coefficient for t in poly.p4},
    }
    coefficients_ok = (
        coeffs["lambda0_ffff"] == {1}
        and coeffs["xi"] == {-2}
        and coeffs["phi1"] == {4}
        and coeffs["phi2"] == {1}
        and coeffs["delta"] == {-2}
        and coeffs["lambda"] == {1}
    )
    pattern_ok = (
        len(poly.p0) == 1
        and len(poly.p1) == 2
        and len(poly.p2) == 4
        and len(poly.p3) == 6
        and Counter(len(t.pairings) for t in poly.p4) == Counter({0: 1, 1: 4, 2: 2})
    )
    report(
        5,
        "bubble pruning and polynomial term pattern",
        pruning_ok and coefficients_ok and pattern_ok,
        f"coefficients {sorted((k, tuple(sorted(v))) for k, v in coeffs.items())}",
    )


def test_criterion_06_miller_rule():
    med = MediumParams(omega0=1.0, chi_s=1.0, alpha=0.5, rho=0.2, nu=NuConstant(0.1, 10.0), loop_cutoff=30.0)
    lam = lambda_isotropic(0.6, 0.1, 0.4)
    rng = np.random.default_rng(606)
    ratios = []
    for _ in range(5):
        w1, w2, w3 = rng.uniform(0.1, 2.2, size=3)
        ratios.append(miller_ratio(med, lam, w1 - w2 + w3, w1, w2, w3))
    base = ratios[0]
    dev = max(float(np.max(np.abs(r - base))) for r in ratios[1:]) / float(np.max(np.abs(base)))
    report(6, "Miller ratio constant over frequency", dev < 1e-10, f"max rel spread {dev:.2e}")


def test_criterion_07_chi3_formula_vs_functional_derivative():
    med = MediumParams(omega0=1.0, chi_s=1.0, alpha=0.5, rho=0.2, nu=NuConstant(0.1, 10.0), loop_cutoff=30.0)
    lam = lambda_isotropic(0.25, 0.4, 0.35)
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(5):
        w1, w2, w3 = rng.uniform(0.1, 1.6, size=3)
        w = w1 - w2 + w3
        fd = extract_chi3_fd(med, lam, w, w1, w2, w3, 1e-3)
        cf = chi3(med, lam, w, w1, w2, w3)
        worst = max(worst, float(np.max(np.abs(fd - cf)) / np.max(np.abs(cf))))
    report(7, "chi3 formula vs functional derivative", worst < 1e-6, f"max rel {worst:.2e}")


def test_criterion_08_chi3_scaling():
    med = MediumParams(omega0=1.0, chi_s=1.0, alpha=0.5, rho=0.2, nu=NuConstant(0.1, 10.0), loop_cutoff=30.0)
    med2 = MediumParams(omega0=1.0, chi_s=1.0, alpha=1.0, rho=0.2, nu=NuConstant(0.1, 10.0), loop_cutoff=30.0)
    lam = lambda_isotropic(0.25, 0.4, 0.35)
    w1, w2, w3 = 0.4, 0.15, 0.7
    w = w1 - w2 + w3
    base = chi3(med, lam, w, w1, w2, w3)
    alpha_scaled = chi3(med2, lam, w, w1, w2, w3)
    lam_scaled = chi3(med, 2.0 * lam, w, w1, w2, w3)
    err_alpha = float(np.max(np.abs(alpha_scaled - 16.0 * base)) / np.max(np.abs(alpha_scaled)))
    err_lam = float(np.max(np.abs(lam_scaled - 2.0 * base)) / np.max(np.abs(lam_scaled)))
    report(8, "chi3 scaling alpha^4 and linear in lambda", err_alpha < 1e-12 and err_lam < 1e-12,
           f"alpha err {err_alpha:.2e}, lambda err {err_lam:.2e}")


def test_criterion_09_dyson_consistency():
    med = MediumParams(omega0=1.0, chi_s=1.0, alpha=0.5, rho=0.2, nu=NuConstant(0.1, 10.0), loop_cutoff=30.0)
    ctx = PlaneWaveContext(k=1.3, polarization=np.array([1.0, 0.0, 0.0]), omega=0.8)
    g0 = tree_propagators(med, ctx)
    exact = dyson_dress(g0, np.zeros((3, 3)))
    zero_ok = all(
        np.array_equal(getattr(exact.resummed, b), getattr(g0, b)) for b in ("aa", "ax", "xa", "xx")
    )
    pi = 0.05 * (np.eye(3) + 0.3j * np.eye(3))
    scales = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    diffs = []
    for s in scales:
        d = dyson_dress(g0, s * pi)
        diffs.append(
            max(
                np.max(np.abs(getattr(d.resummed, b) - getattr(d.single, b)))
                for b in ("aa", "ax", "xa", "xx")
            )
        )
    slope = float(np.polyfit(np.log(scales), np.log(diffs), 1)[0])
    report(9, "Dyson single-insertion vs resummation", zero_ok and abs(slope - 2.0) <= 0.05,
           f"slope {slope:.4f}")


def test_criterion_10_loop_convergence():
    toy = MediumParams(omega0=1.0, chi_s=1.0, alpha=0.3, rho=0.05, nu=NuConstant(0.05, 4.0), loop_cutoff=60.0)
    lam = lambda_isotropic(0.1, 0.2, 0.1)
    estimates = []
    for cut in (10.0, 20.0, 40.0):
        res = self_energy(toy, lam, 0.7, LoopQuadrature(n_points=int(100 * cut), cutoff=cut))
        estimates.append(res.error_estimate)
    monotone = estimates[0] > estimates[1] > estimates[2]
    try:
        self_energy(toy, lam, 0.7, LoopQuadrature(n_points=64, cutoff=2.0))
        raised = False
    except LoopConvergenceError:
        raised = True
    report(10, "loop Richardson estimates decrease; non-convergence raises", monotone and raised,
           f"estimates {[f'{e:.3e}' for e in estimates]}")


def test_criterion_11_duffing_oracle():
    med = MediumParams(omega0=1.0, chi_s=1.0, alpha=0.5, rho=0.8, nu=NuConstant(0.1, 6.0), loop_cutoff=30.0)
    lam = lambda_isotropic(0.05, 0.08, 0.05)
    t0 = time.monotonic()
    rep = compare_chi3(med, lam, drive_freq=0.24, ladder=5)
    elapsed = time.monotonic() - t0
    ok = (
        2.99 <= rep.scaling_exponent <= 3.01
        and abs(rep.ratio_to_reference - 1.0) <= 0.05
        and rep.energy_balance_error <= 0.005
        and elapsed < 120.0
    )
    report(
        11,
        "Duffing oracle: cubic scaling, ratio, energy balance",
        ok,
        f"exponent {rep.scaling_exponent:.4f}, |ratio-1| {abs(rep.ratio_to_reference-1.0):.4f}, "
        f"energy {rep.energy_balance_error:.2e}, {elapsed:.1f}s",
    )


def test_criterion_12_displacement_reality_and_fwm():
    med = MediumParams(omega0=1.0, chi_s=1.0, alpha=0.5, rho=0.2, nu=NuConstant(0.1, 10.0), loop_cutoff=30.0)
    lam = lambda_isotropic(0.3, 0.2, 0.1)
    wa, wb = 0.9, 1.7
    comb = FrequencyComb.from_lines(
        [(wa, [0.2 + 0.1j, 0.05, 0.03j]), (wb, [0.05 - 0.02j, 0.03, 0.01])]
    )
    out = displacement(comb, med, lam)
    closed = out.is_conjugate_closed()
    fwm = math.fsum((wa, wa, -wb))
    got = out.amplitude_at(fwm)
    ref = naive_displacement_line(comb, med, lam, fwm)
    exact_match = bool(np.array_equal(got, ref)) and bool(np.any(got != 0.0))
    report(12, "displacement reality closure and FWM line vs naive oracle", closed and exact_match,
           f"FWM line at {fwm:.3f}")
