"""Stacked per-sample functions against the loop of their one-matrix calls.

A stack of n matrices must give, bit for bit, what n single calls give,
and fail where the loop first fails: same sample, same error type, same
message after the sample prefix.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import expm

from entgrowth.dynamics import evolve_covariance, polar_decompose
from entgrowth.entropy import (
    LN_E_OVER_2,
    asymptotic_entropy,
    logdet_pd,
    mode_entropy,
    renyi2_entropy,
    von_neumann_entropy,
)
from entgrowth.errors import NotDarboux, NotPositiveDefinite, SingularM
from entgrowth.phase_space import (
    ModeCount,
    SubsystemSpec,
    covariance_factor,
    factor_spectrum,
    restrict,
    standard_omega,
    williamson_spectrum,
)
from entgrowth.scenarios import _a_block, _gaussian_samples
from entgrowth.ssa import squashed_bounds
from entgrowth.subsystem import restricted_log_volume
from reference import random_covariance
from test_phase_space import eig_williamson_spectrum


@st.composite
def symplectic_stacks(draw):
    """(mats, g0, split): 1-6 flows exp(t Omega h) on 2 or 3 modes, |h entries| <= 0.5, t <= 3.

    ``g0`` is a squeezed thermal covariance, S diag(nu) S^T with nu >= 1.
    """
    n = draw(st.sampled_from([2, 3]))
    count = draw(st.integers(1, 6))
    dim = 2 * n
    forms = draw(hnp.arrays(np.float64, (count + 1, dim, dim), elements=st.floats(-0.5, 0.5)))
    t = draw(st.floats(0.0, 3.0))
    omega = standard_omega(n)
    flows = np.array([expm(t * omega @ (0.5 * (a + a.T))) for a in forms])
    nu = draw(hnp.arrays(np.float64, n, elements=st.floats(1.0, 3.0)))
    s0 = flows[-1]
    g0 = s0 @ np.diag(np.repeat(nu, 2)) @ s0.T
    return flows[:-1], 0.5 * (g0 + g0.T), ModeCount(n, draw(st.integers(1, n - 1)))


def _loop(fn, stack):
    """``fn`` on each matrix in turn: (results, None), or (None, (i, error)) at the first failure."""
    results = []
    for i, mat in enumerate(stack):
        try:
            results.append(fn(mat))
        except Exception as exc:
            return None, (i, exc)
    return results, None


def _agrees_with_loop(fn, stack, parts=lambda result: (result,)):
    """``fn(stack)`` equals the loop of ``fn`` bit for bit, or fails where the loop first fails."""
    results, failure = _loop(fn, stack)
    if failure is None:
        got = parts(fn(stack))
        for k, part in enumerate(got):
            want = np.array([parts(r)[k] for r in results])
            assert part.shape == want.shape
            assert (part == want).all()
        return True
    index, error = failure
    with pytest.raises(type(error)) as info:
        fn(stack)
    assert type(info.value) is type(error)
    assert info.value.index == index
    assert info.value.detail == str(error)
    assert str(info.value) == f"sample {index}: {error}"
    return False


@settings(max_examples=80, deadline=None)
@given(symplectic_stacks())
def test_stacked_functions_equal_their_loop_bit_for_bit(case):
    mats, g0, split = case
    sub_a = SubsystemSpec.first_modes(split.n_a, split.n_total)

    assert _agrees_with_loop(lambda m: evolve_covariance(g0, m), mats)
    g = evolve_covariance(g0, mats)
    assert _agrees_with_loop(lambda x: restrict(x, sub_a), g)
    g_a = restrict(g, sub_a)
    _agrees_with_loop(lambda m: restricted_log_volume(sub_a, m, g0), mats)

    for blocks in (g, g_a):
        for spectrum in (williamson_spectrum, eig_williamson_spectrum):
            _agrees_with_loop(spectrum, blocks)
        for fn in (logdet_pd, asymptotic_entropy, renyi2_entropy, von_neumann_entropy):
            if _agrees_with_loop(fn, blocks):
                assert type(fn(blocks[0])) is float

    def polar_parts(pair):
        return pair.t_part, pair.u_part

    if _agrees_with_loop(polar_decompose, mats, polar_parts):
        _agrees_with_loop(lambda t: squashed_bounds(t, g0, split),
                          polar_decompose(mats).t_part, lambda bounds: bounds)


@settings(max_examples=60, deadline=None)
@given(symplectic_stacks(), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_a_block_stage_equals_the_entropy_functions_bit_for_bit(case, seed, mixed):
    # the pipeline's row stages, which factor the rows of M C0 and form no
    # block, give on a stack the bits they give on each sample alone, for
    # pure and mixed initial states.  They agree with the entropy functions
    # of the formed blocks G_A = (M g0 M^T)_A to the formed blocks' roundoff,
    # eps |G|^2 (at most 8.3 eps |G|^2 over 1,500 draws)
    mats, _, split = case
    g0 = random_covariance(split.n_total, np.random.default_rng(seed), mixed=mixed)
    c0 = np.linalg.cholesky(g0)
    sub_a = SubsystemSpec.first_modes(split.n_a, split.n_total)
    sub_b = SubsystemSpec.modes(range(split.n_a, split.n_total), split.n_total)
    g = evolve_covariance(g0, mats)
    g_a, g_b = restrict(g, sub_a), restrict(g, sub_b)
    assume(_loop(von_neumann_entropy, g_a)[1] is None)
    assume(_loop(von_neumann_entropy, g_b)[1] is None)
    s_global = von_neumann_entropy(g0) if mixed else None

    def stages(m, times):
        ell, s2, s_as = _a_block(m, times, c0, split)
        return (s2, s_as) + _gaussian_samples(m, times, g0, c0, split, s_global, ell)

    times = np.arange(len(mats), dtype=float)
    stacked = stages(mats, times)
    s2, s_as, s_vn, i_ab = stacked[:4]
    for k, block in enumerate(g_a):
        assert all(column[k] == one[0] for column, one in
                   zip(stacked, stages(mats[k:k + 1], times[k:k + 1])))
        tol = 64.0 * np.finfo(float).eps * np.max(np.abs(g[k])) ** 2
        assert abs(s_vn[k] - von_neumann_entropy(block)) <= tol
        assert abs(s2[k] - renyi2_entropy(block)) <= tol
        assert abs(s_as[k] - asymptotic_entropy(block)) <= tol
        if mixed:
            i_formed = von_neumann_entropy(block) + von_neumann_entropy(g_b[k]) - s_global
            assert abs(i_ab[k] - i_formed) <= 2.0 * tol


@st.composite
def covariance_stacks(draw):
    """1-6 random covariance matrices on 1-3 modes, all pure or all mixed, up to two corrupted.

    A corrupted sample is scaled toward zero (below the vacuum when the
    scale is small enough), negated (not positive definite) or made
    asymmetric.
    """
    n = draw(st.integers(1, 3))
    count = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mixed = draw(st.booleans())
    stack = np.array([random_covariance(n, rng, mixed=mixed) for _ in range(count)])
    corruptions = st.tuples(st.integers(0, count - 1),
                            st.sampled_from(["scaled", "negated", "asymmetric"]))
    for index, kind in draw(st.lists(corruptions, max_size=2)):
        if kind == "scaled":
            stack[index] *= draw(st.floats(0.2, 1.0))
        elif kind == "negated":
            stack[index] = -stack[index]
        else:
            stack[index][0, -1] += 1e-3 * (1.0 + np.abs(stack[index]).max())
    return stack


def _factor_path(stack):
    """The pipeline's A-block route: one factor L per sample, then the spectrum of L.

    Fails as the pipeline's entropy stage does: when the factor fails at
    sample i, the samples before i are checked against the uncertainty
    bound first.
    """
    try:
        ell = covariance_factor(stack)
    except (ValueError, RuntimeError) as exc:
        if getattr(exc, "index", None):
            factor_spectrum(covariance_factor(stack[:exc.index]))
        raise
    return ell, factor_spectrum(ell)


@settings(max_examples=120, deadline=None)
@given(covariance_stacks())
def test_library_entropies_equal_the_factor_path_bit_for_bit(stack):
    n = stack.shape[-1] // 2
    try:
        ell, nus = _factor_path(stack)
    except (ValueError, RuntimeError) as failure:
        for fn in (renyi2_entropy, von_neumann_entropy):
            with pytest.raises(type(failure)) as info:
                fn(stack)
            assert type(info.value) is type(failure)
            assert (info.value.index, str(info.value)) == (failure.index, str(failure))
    else:
        s2 = np.sum(np.log(np.diagonal(ell, axis1=-2, axis2=-1)), axis=-1)
        with mock.patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as cholesky:
            assert (renyi2_entropy(stack) == s2).all()
        assert cholesky.call_count == 1
        assert renyi2_entropy(stack[0]) == s2[0]
        # the stacked sum over the spectrum equals a loop of one-eigenvalue calls
        per_nu = np.array([sum(mode_entropy(float(nu)) for nu in row) for row in nus])
        assert (von_neumann_entropy(stack) == per_nu).all()
        assert von_neumann_entropy(stack[0]) == per_nu[0]
    # the asymptotic entropy needs only the factor, not the uncertainty bound
    try:
        ell = covariance_factor(stack)
    except (ValueError, RuntimeError):
        return
    s_as = np.sum(np.log(np.diagonal(ell, axis1=-2, axis2=-1)), axis=-1) + n * LN_E_OVER_2
    assert (asymptotic_entropy(stack) == s_as).all()
    assert asymptotic_entropy(stack[0]) == s_as[0]


def _clean_case(case):
    mats, g0, split = case
    sub_a = SubsystemSpec.first_modes(split.n_a, split.n_total)
    g_a = restrict(evolve_covariance(g0, mats), sub_a)
    t_parts = polar_decompose(mats).t_part
    assume(_loop(von_neumann_entropy, g_a)[1] is None)
    assume(_loop(lambda t: squashed_bounds(t, g0, split), t_parts)[1] is None)
    return g_a, t_parts.copy(), g0, split


@settings(max_examples=60, deadline=None)
@given(symplectic_stacks(), st.data())
def test_a_corrupted_sample_fails_as_its_own_call(case, data):
    g_a, t_parts, g0, split = _clean_case(case)
    index = data.draw(st.integers(0, len(g_a) - 1))
    if data.draw(st.booleans()):
        # a non-PD A block
        blocks = g_a.copy()
        blocks[index] = -blocks[index]
        checks = [(fn, blocks) for fn in
                  (logdet_pd, asymptotic_entropy, renyi2_entropy, von_neumann_entropy)]
    else:
        # an asymmetric polar factor
        t_parts[index][0, -1] += 1e-6 * (1.0 + np.abs(t_parts[index]).max())
        checks = [(lambda t: squashed_bounds(t, g0, split), t_parts)]
    for fn, stack in checks:
        with pytest.raises(Exception) as single:
            fn(stack[index])
        with pytest.raises(type(single.value)) as stacked:
            fn(stack)
        assert type(stacked.value) is type(single.value)
        assert stacked.value.index == index
        assert str(stacked.value) == f"sample {index}: {single.value}"


def test_earliest_failing_sample_wins_over_check_order():
    # sample 3 fails the first check, sample 1 only the second: a loop over
    # the samples meets sample 1 first
    flows = np.array([np.eye(4)] * 4)
    flows[3][0, 1] = np.inf    # the first check of the bounds: finite entries
    flows[1] = 2.0 * np.eye(4)   # not symplectic: their second check
    with pytest.raises(NotDarboux, match="not symplectic") as info:
        squashed_bounds(flows, np.eye(4), ModeCount(2, 1))
    assert info.value.index == 1

    mats = np.array([np.eye(4)] * 3)
    mats[2][0, 0] = np.nan     # the first check of the polar decomposition
    mats[0][:2] = 0.0          # singular: its second check
    with pytest.raises(SingularM, match="singular values out of range") as info:
        polar_decompose(mats)
    assert info.value.index == 0
    assert str(info.value).startswith("sample 0: ")


def test_one_matrix_failure_has_no_sample():
    with pytest.raises(NotPositiveDefinite) as info:
        logdet_pd(-np.eye(2))
    assert str(info.value) == "matrix is not positive definite"
    assert info.value.index is None
