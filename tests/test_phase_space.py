"""Phase-space conventions, covariance validity, Williamson spectra, restriction."""

import numpy as np
import pytest

from entgrowth.errors import NotDarboux, NotPositiveDefinite, NotSymmetric, UncertaintyViolated
from entgrowth.phase_space import (
    UNCERTAINTY_SLACK,
    ModeCount,
    SubsystemSpec,
    _earliest_failure,
    _fail_first,
    complex_structure,
    is_pure,
    n_modes_of,
    restrict,
    standard_omega,
    williamson_spectrum,
)
from reference import random_covariance, random_symplectic


def two_mode_squeezed_cov(r):
    """Covariance of the two-mode squeezed vacuum, built from the squeezer."""
    k = np.zeros((4, 4))
    k[0, 2] = k[2, 0] = 1.0
    k[1, 3] = k[3, 1] = -1.0
    from scipy.linalg import expm
    m = expm(r * k)
    return m @ m.T


@_earliest_failure
def eig_williamson_spectrum(g):
    """Reference route to the symplectic spectrum: |+-i nu| pairs of the eigenvalues of Omega G.

    Runs the covariance check first, then checks that the eigenvalues are
    dominantly imaginary; a stack gives one row per matrix and fails where
    a loop over it first fails.
    """
    g = np.asarray(g, dtype=float)
    williamson_spectrum(g)
    ev = np.linalg.eigvals(standard_omega(n_modes_of(g)) @ g)
    scale = np.max(np.abs(ev), axis=-1)
    _fail_first(np.max(np.abs(ev.real), axis=-1) > 1e-6 * (scale + 1.0), UncertaintyViolated,
                "eigenvalues of Omega G are not dominantly imaginary; "
                "input is not a valid covariance matrix")
    return np.sort(np.abs(ev.imag))[..., ::-2]


def test_standard_omega_single_mode():
    assert np.array_equal(standard_omega(1), [[0.0, 1.0], [-1.0, 0.0]])


def test_standard_omega_two_modes_block_diagonal():
    omega = standard_omega(2)
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.array_equal(omega[:2, :2], block)
    assert np.array_equal(omega[2:, 2:], block)
    assert np.all(omega[:2, 2:] == 0) and np.all(omega[2:, :2] == 0)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_standard_omega_orthogonal(n):
    omega = standard_omega(n)
    assert np.allclose(omega @ omega.T, np.eye(2 * n))
    assert np.allclose(omega @ omega, -np.eye(2 * n))
    assert np.isclose(np.linalg.det(omega), 1.0)


def test_complex_structure_vacuum():
    j = complex_structure(np.eye(2))
    assert np.allclose(j, -standard_omega(1))
    assert np.allclose(j @ j, -np.eye(2))


def test_complex_structure_thermal():
    j = complex_structure(2.0 * np.eye(2))
    assert np.allclose(-(j @ j), 4.0 * np.eye(2))


def test_complex_structure_squeezed_pure():
    r = 0.8
    g = np.diag([np.exp(2 * r), np.exp(-2 * r)])
    j = complex_structure(g)
    assert np.allclose(j @ j, -np.eye(2), atol=1e-12)


def test_validate_vacuum():
    assert np.array_equal(williamson_spectrum(np.eye(4)), [1.0, 1.0])


def test_validate_below_vacuum():
    with pytest.raises(UncertaintyViolated,
                       match="uncertainty_violated \\(min symplectic eigenvalue = 0.5\\)"):
        williamson_spectrum(0.5 * np.eye(2))


def test_validate_not_symmetric():
    g = np.eye(2)
    g[0, 1] = 0.5
    with pytest.raises(NotSymmetric, match="covariance check failed: not_symmetric"):
        williamson_spectrum(g)


def test_validate_not_positive_definite():
    g = np.diag([1.0, -1.0])
    with pytest.raises(NotPositiveDefinite, match="covariance check failed: not_positive_definite"):
        williamson_spectrum(g)


def test_validate_random_pure_states():
    rng = np.random.default_rng(7)
    for _ in range(25):
        s = random_symplectic(2, rng)
        assert np.allclose(williamson_spectrum(s @ s.T), 1.0, atol=1e-8)


def test_williamson_vacuum_and_thermal():
    assert np.allclose(williamson_spectrum(np.eye(6)), 1.0)
    assert np.allclose(williamson_spectrum(2.0 * np.eye(2)), [2.0])


def test_williamson_two_mode_squeezed_pure():
    nus = williamson_spectrum(two_mode_squeezed_cov(0.9))
    assert np.allclose(nus, [1.0, 1.0], atol=1e-9)


def test_williamson_determinant_identity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_covariance(2, rng, mixed=True)
        nus = williamson_spectrum(g)
        assert np.isclose(np.prod(nus ** 2), np.linalg.det(g), rtol=1e-9)


def test_williamson_symplectic_invariance():
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = random_covariance(2, rng, mixed=True)
        s = random_symplectic(2, rng)
        assert np.allclose(williamson_spectrum(s @ g @ s.T), williamson_spectrum(g),
                           rtol=1e-8, atol=1e-8)


def test_williamson_methods_agree():
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = random_covariance(3, rng, mixed=True)
        assert np.allclose(williamson_spectrum(g), eig_williamson_spectrum(g),
                           rtol=1e-9, atol=1e-9)


def test_is_pure():
    assert is_pure(np.eye(4))
    assert not is_pure(2.0 * np.eye(2))
    rng = np.random.default_rng(2)
    s = random_symplectic(2, rng)
    assert is_pure(s @ s.T)


def test_purity_matches_unit_spectrum():
    rng = np.random.default_rng(13)
    for _ in range(200):
        mixed = rng.random() < 0.5
        g = random_covariance(2, rng, mixed=mixed, scale=0.4)
        pure_by_j = is_pure(g, tol=1e-6)
        pure_by_nu = np.all(williamson_spectrum(g) < 1.0 + 1e-6)
        assert pure_by_j == pure_by_nu


def test_restrict_identity():
    sub = SubsystemSpec.first_modes(1, 2)
    assert np.allclose(restrict(np.eye(4), sub), np.eye(2))


def test_restrict_two_mode_squeezed():
    r = 0.7
    g = two_mode_squeezed_cov(r)
    got = restrict(g, SubsystemSpec.first_modes(1, 2))
    assert np.allclose(got, np.cosh(2 * r) * np.eye(2), atol=1e-12)


def test_restrict_block_diagonal_product_state():
    g = np.diag([1.5, 1.5, 3.0, 3.0])
    assert np.allclose(restrict(g, SubsystemSpec.modes([1], 2)), 3.0 * np.eye(2))


def test_restrict_composition():
    rng = np.random.default_rng(17)
    g = random_covariance(3, rng, mixed=True)
    outer = SubsystemSpec.modes([0, 2], 3)          # 3 modes -> 2 modes
    inner = SubsystemSpec.modes([1], 2)             # of those, the second
    direct = SubsystemSpec.modes([2], 3)
    assert np.allclose(restrict(restrict(g, outer), inner), restrict(g, direct), atol=1e-12)
    composed = SubsystemSpec(inner.selector @ outer.selector)   # the product selector
    assert np.allclose(restrict(g, composed), restrict(g, direct), atol=1e-12)


def test_subsystem_spec_rejects_non_darboux():
    bad = np.zeros((2, 4))
    bad[0, 0] = 1.0
    bad[1, 2] = 1.0   # q1 and q2: omega pairing zero
    with pytest.raises(NotDarboux):
        SubsystemSpec(bad)


def test_rotated_subsystem_is_darboux():
    rng = np.random.default_rng(23)
    s = random_symplectic(2, rng)
    SubsystemSpec(SubsystemSpec.first_modes(1, 2).selector @ s)  # must not raise


def test_mode_count_validation():
    with pytest.raises(ValueError):
        ModeCount(2, 2)
    with pytest.raises(ValueError):
        ModeCount(2, 0)
    assert ModeCount(5, 2).n_b == 3


def test_validity_matches_spectrum_threshold():
    rng = np.random.default_rng(31)
    accepted = rejected = 0
    for _ in range(200):
        g = random_covariance(2, rng, mixed=True, scale=0.5)
        if rng.random() < 0.4:
            g = (0.3 + 0.6 * rng.random()) * g   # often pushes below vacuum
        # reference verdict: the smallest eigenvalue of -J^2 is nu_min^2
        j = complex_structure(g)
        min_eig = np.min(np.linalg.eigvals(-(j @ j)).real)
        try:
            nus = williamson_spectrum(g)
        except UncertaintyViolated:
            ok = False
        else:
            ok = True
            assert np.all(nus >= 1.0 - 1e-6)
        threshold = 1.0 - UNCERTAINTY_SLACK
        if abs(min_eig - threshold) > 1e-6:    # the routes differ by roundoff only
            assert ok == (min_eig >= threshold)
        accepted += ok
        rejected += not ok
    assert accepted > 20 and rejected > 20
