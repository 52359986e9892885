"""Property tests of the vectorised linear-response core, chi3 and the comb displacement over random media.

Media are drawn with flat (``NuConstant``) and tabulated couplings.  Grids
mix random frequencies of both signs with 0 and with nodes the kernel
quadrature itself uses (its uniform base nodes and the coupling's
breakpoints), where the pole sits exactly on a quadrature node.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from conftest import chi3_two_permutation, kk_reconstruct_loop, naive_displacement_line
from nlmedium.displacement import FrequencyComb, displacement
from nlmedium.errors import GridResolutionError, InputError, MillerRatioError, ResponsePoleError
from nlmedium.medium import (
    MediumParams,
    NuConstant,
    NuTabulated,
    _gamma_scalar,
    _sigma_scalar,
    _sigma_values,
    _static_nodes,
    chi1_spectrum,
    kk_reconstruct,
)
from nlmedium.nonlinear import chi3, miller_ratio

SETTINGS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])

positive = st.floats(min_value=0.05, max_value=2.0)


@st.composite
def media(draw):
    omega0 = draw(st.floats(min_value=0.5, max_value=2.0))
    if draw(st.booleans()):
        nu = NuConstant(draw(st.floats(min_value=0.0, max_value=0.3)), draw(st.floats(min_value=0.2, max_value=20.0)))
    else:
        steps = draw(st.lists(st.floats(min_value=0.05, max_value=3.0), min_size=1, max_size=30))
        grid = draw(st.floats(min_value=0.0, max_value=2.0)) + np.cumsum([0.0] + steps)
        values = draw(
            st.lists(st.floats(min_value=0.0, max_value=0.3), min_size=grid.size, max_size=grid.size)
        )
        nu = NuTabulated(grid, np.asarray(values))
    return MediumParams(
        omega0=omega0,
        chi_s=draw(positive),
        alpha=0.5,
        rho=draw(positive),
        nu=nu,
        loop_cutoff=omega0 * draw(st.floats(min_value=1.5, max_value=30.0)),
    )


@st.composite
def media_and_grids(draw):
    medium = draw(media())
    cut = medium.loop_cutoff
    magnitudes = draw(st.lists(st.floats(min_value=1e-6, max_value=cut, exclude_max=True), min_size=1, max_size=24))
    free = np.asarray(magnitudes) * draw(
        st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(magnitudes), max_size=len(magnitudes))
    )
    nodes = _static_nodes(medium.nu, cut)[0]
    nodes = nodes[(nodes > 0.0) & (nodes < cut)]
    picks = draw(st.lists(st.integers(0, nodes.size - 1), max_size=6))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(picks), max_size=len(picks)))
    breaks = np.atleast_1d(medium.nu.breakpoints())
    breaks = breaks[(breaks > 0.0) & (breaks < cut)]
    grid = np.concatenate([[0.0], free, np.asarray(signs) * nodes[picks], breaks[:4]])
    return medium, grid


@SETTINGS
@given(media_and_grids())
def test_batched_sigma_equals_one_row_path(case):
    medium, grid = case
    batched = _sigma_values(medium, grid)
    one_row = np.asarray([_sigma_scalar(medium, float(w)) for w in grid])
    assert np.all(np.abs(batched - one_row) <= 1e-14 * np.abs(one_row))
    assert np.all(batched[grid == 0.0] == 0.0)


@SETTINGS
@given(media_and_grids())
def test_sigma_hermitian_analyticity_is_bitwise(case):
    medium, grid = case
    plus = _sigma_values(medium, grid)
    assert np.array_equal(_sigma_values(medium, -grid), np.conj(plus))
    for w in grid[:6]:
        assert _sigma_scalar(medium, -float(w)) == np.conj(_sigma_scalar(medium, float(w)))


@SETTINGS
@given(media_and_grids())
def test_passivity(case):
    medium, grid = case
    w = np.unique(np.abs(grid))
    assert np.all(_sigma_values(medium, w).imag >= 0.0)
    try:
        chi = chi1_spectrum(medium, w).values[:, 0, 0]
    except ResponsePoleError:
        reject()
    assert np.all(chi.imag >= -1e-12)
    assert chi[0] == medium.chi_s


@st.composite
def kk_inputs(draw):
    n = draw(st.integers(8, 300))
    start = draw(st.sampled_from([0.0, 0.01, 0.3]))
    steps = np.asarray(draw(st.lists(st.floats(0.01, 0.2), min_size=n - 1, max_size=n - 1)))
    grid = start + np.concatenate([[0.0], np.cumsum(steps)])
    w0 = draw(st.floats(0.2, 1.0)) * grid[-1]
    gam = draw(st.floats(0.2, 2.0))
    amp = draw(st.floats(0.1, 10.0))
    im = amp * gam * grid / ((w0**2 - grid**2) ** 2 + gam**2 * grid**2)
    return grid, im


@SETTINGS
@given(kk_inputs())
def test_kk_matrix_form_matches_loop(case):
    grid, im = case
    try:
        got = kk_reconstruct(grid, im)
    except GridResolutionError:
        reject()
    ref = kk_reconstruct_loop(grid, im)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [4096, 4100])
def test_kk_matrix_form_matches_loop_across_chunks(smooth_lossy, n):
    grid = np.linspace(0.0, 20.0, n)
    im = chi1_spectrum(smooth_lossy, grid).values[:, 0, 0].imag
    ref = kk_reconstruct_loop(grid, im)
    assert np.max(np.abs(kk_reconstruct(grid, im) - ref)) <= 1e-12 * np.max(np.abs(ref))


@st.composite
def chi3_cases(draw):
    """A random medium, a pair-symmetric 81-entry coupling and three quadruples."""
    medium = dataclasses.replace(
        draw(media()),
        alpha=draw(st.floats(min_value=0.05, max_value=2.0)),
        eps0=draw(st.floats(min_value=0.2, max_value=5.0)),
        g=draw(st.sampled_from([0, 1])),
    )
    entry = st.floats(min_value=-1.0, max_value=1.0)
    table = np.asarray(draw(st.lists(st.tuples(entry, entry), min_size=81, max_size=81)))
    lam = (table[:, 0] + 1j * table[:, 1]).reshape(3, 3, 3, 3)
    lam = 0.5 * (lam + lam.transpose(2, 3, 0, 1))
    span = 0.3 * medium.loop_cutoff
    freq = st.floats(min_value=-span, max_value=span)
    quadruples = draw(st.lists(st.tuples(freq, freq, freq), min_size=3, max_size=3))
    return medium, lam, quadruples


@SETTINGS
@given(chi3_cases())
def test_chi3_single_dressing_site(case):
    medium, lam, quadruples = case
    ratios = []
    for w1, w2, w3 in quadruples:
        w = w1 - w2 + w3
        try:
            got = chi3(medium, lam, w, w1, w2, w3)
        except ResponsePoleError:
            reject()
        ref = chi3_two_permutation(medium, lam, w, w1, w2, w3)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(got))
        assert np.array_equal(got, got.transpose(0, 3, 2, 1))
        if medium.g:
            try:
                ratios.append(miller_ratio(medium, lam, w, w1, w2, w3))
            except MillerRatioError:
                reject()
    for ratio in ratios[1:]:
        assert np.max(np.abs(ratio - ratios[0])) <= 1e-13 * np.max(np.abs(ratios[0]))


@st.composite
def comb_cases(draw):
    """A random medium, a real pair-symmetric coupling, 1-3 positive comb lines and a line order."""
    medium = draw(media())
    lam = np.asarray(draw(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=81, max_size=81)))
    lam = 0.5 * (lam.reshape(3, 3, 3, 3) + lam.reshape(3, 3, 3, 3).transpose(2, 3, 0, 1))
    freq = st.floats(min_value=0.05, max_value=0.3 * medium.loop_cutoff)
    freqs = draw(st.lists(freq, min_size=1, max_size=3, unique=True))
    part = st.floats(min_value=-1.0, max_value=1.0)
    lines = []
    for w in freqs:
        amp = np.asarray(draw(st.lists(st.tuples(part, part), min_size=3, max_size=3)))
        lines.append((w, amp[:, 0] + 1j * amp[:, 1]))
    order = draw(st.permutations(range(2 * len(freqs))))
    return medium, lam, lines, order, draw(st.integers(0, 200))


@SETTINGS
@given(comb_cases())
def test_comb_closure(case):
    medium, lam, lines, order, pick = case
    try:
        comb = FrequencyComb.from_lines(lines)
        out = displacement(comb, medium, lam)
    except (InputError, ResponsePoleError):
        reject()
    assert out.is_conjugate_closed()

    # the enumeration follows the line order, the fsum reduction makes it irrelevant
    permuted = displacement(FrequencyComb(tuple(comb.lines[i] for i in order), comb.tolerance), medium, lam)
    assert len(permuted.lines) == len(out.lines)
    for (w, a), (v, b) in zip(out.lines, permuted.lines):
        assert np.float64(w).tobytes() == np.float64(v).tobytes() and a.tobytes() == b.tobytes()

    # The naive oracle sums each term's 27 products in another order than the
    # einsum, so the two agree to rounding, not bitwise, for general couplings.
    # Bound: 64 ulp of the summed magnitudes, with |lambda0| <= |lam| gamma^4 / 4!
    # and every term of one line counted at its largest size.
    w, got = out.lines[pick % len(out.lines)]
    ref = naive_displacement_line(comb, medium, lam, w)
    n = len(comb.lines)
    gam = max(abs(_gamma_scalar(medium, float(v))) for v, _ in comb.lines + out.lines)
    amp = max(float(np.sum(np.abs(a))) for _, a in comb.lines)
    linear = n * (medium.eps0 + gam) * amp
    cubic = 2 * n**3 * medium.alpha**4 * float(np.max(np.abs(lam))) * gam**4 / 24.0 * amp**3 / 16.0
    assert np.all(np.abs(got - ref) <= 64 * np.finfo(float).eps * (linear + cubic))
