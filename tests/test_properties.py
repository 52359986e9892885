"""Property tests of the vectorised linear-response core, chi3 and the comb displacement over random media.

Media are drawn with flat (``NuConstant``) and tabulated couplings.  Grids
mix random frequencies of both signs with 0 and with nodes the kernel
quadrature itself uses (its uniform base nodes and the coupling's
breakpoints), where the pole sits exactly on a quadrature node.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import chi3_two_permutation, kk_reconstruct_loop, naive_displacement_line
from nlmedium.displacement import FrequencyComb, displacement
from nlmedium import medium as medium_module
from nlmedium.errors import GridResolutionError, InputError, MillerRatioError, ResponsePoleError
from nlmedium.medium import (
    _CHUNK_ELEMENTS,
    MediumParams,
    NuConstant,
    NuTabulated,
    _base_sums,
    _static_nodes,
    chi1,
    gamma_response,
    kk_reconstruct,
    reservoir_kernel,
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
@given(media_and_grids(), st.booleans())
def test_batched_sigma_equals_one_row_path(case, long):
    # a row's value does not depend on which frequencies share the call,
    # also when the grid spans several row chunks
    medium, grid = case
    if long:
        rows_per_chunk = _CHUNK_ELEMENTS // _static_nodes(medium.nu, medium.loop_cutoff)[0].size
        spread = np.linspace(0.0, medium.loop_cutoff, 2 * rows_per_chunk + 7, endpoint=False)[1:]
        grid = np.concatenate([grid, spread, -spread[::3]])
    batched = reservoir_kernel(medium, grid)
    one_row = np.asarray([reservoir_kernel(medium, w) for w in grid])
    assert batched.tobytes() == one_row.tobytes()
    assert np.all(batched[grid == 0.0] == 0.0)


@SETTINGS
@given(st.data())
def test_base_sums_are_one_contraction_of_the_integrand(data):
    # the buffers are filled with the row columns before the subtractions;
    # the bits are those of the broadcast form
    finite = st.floats(allow_nan=False, allow_infinity=False)
    nodes, rows = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 8))
    x2, q, weights = (data.draw(hnp.arrays(np.float64, nodes, elements=finite)) for _ in range(3))
    w, qw = (data.draw(hnp.arrays(np.float64, rows, elements=finite)) for _ in range(2))
    work = np.empty((2, rows + data.draw(st.integers(0, 3)), nodes))
    with np.errstate(all="ignore"):
        got = _base_sums(x2, q, weights, w, qw, work)
        ref = np.einsum("ij,j->i", (q - qw[:, None]) / (x2 - (w * w)[:, None]), weights)
    assert got.tobytes() == ref.tobytes()


@SETTINGS
@given(media_and_grids(), st.data())
def test_scalar_entry_points_read_the_array_path(case, data):
    # the grid holds 0 (static limit) and frequencies of both signs
    # (folding); drawn repeats, some negated, follow it
    medium, grid = case
    picks = data.draw(st.lists(st.integers(0, grid.size - 1), min_size=1, max_size=grid.size))
    signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(picks), max_size=len(picks)))
    omegas = np.concatenate([grid, np.asarray(signs) * grid[picks]])
    rows = []
    original = medium_module._kernel

    def counting(params, w):
        rows.append(w.copy())
        return original(params, w)

    try:
        with mock.patch.object(medium_module, "_kernel", counting):
            arrays = {entry: entry(medium, omegas) for entry in (reservoir_kernel, gamma_response, chi1)}
        scalars = {entry: {w: entry(medium, w) for w in omegas.tolist()} for entry in arrays}
    except ResponsePoleError:
        reject()
    # one quadrature call per entry point, each distinct nonzero |omega| once
    distinct = np.unique(np.abs(omegas[omegas != 0.0]))
    assert len(rows) == 3 and all(r.tobytes() == distinct.tobytes() for r in rows)
    for entry, values in arrays.items():
        assert values.shape == omegas.shape
        scalar = np.asarray([scalars[entry][w] for w in omegas.tolist()])
        assert all(type(v) is complex for v in scalars[entry].values())
        assert values.tobytes() == scalar.tobytes()
    nonzero = omegas != 0.0
    sigma = arrays[reservoir_kernel]
    assert reservoir_kernel(medium, -omegas)[nonzero].tobytes() == np.conj(sigma[nonzero]).tobytes()


@SETTINGS
@given(media_and_grids())
def test_sigma_hermitian_analyticity_is_bitwise(case):
    medium, grid = case
    plus = reservoir_kernel(medium, grid)
    assert np.array_equal(reservoir_kernel(medium, -grid), np.conj(plus))
    for w in grid[:6]:
        assert reservoir_kernel(medium, -w) == np.conj(reservoir_kernel(medium, w))


@SETTINGS
@given(media_and_grids())
def test_passivity(case):
    medium, grid = case
    w = np.unique(np.abs(grid))
    assert np.all(reservoir_kernel(medium, w).imag >= 0.0)
    try:
        chi = chi1(medium, w)
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
    im = chi1(smooth_lossy, grid).imag
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

    # both sides follow the written definition of the comb arithmetic
    w, got = out.lines[pick % len(out.lines)]
    assert got.tobytes() == naive_displacement_line(comb, medium, lam, w).tobytes()
