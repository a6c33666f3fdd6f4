"""Algebraic and volumetric subsystem exponents and the column selection."""

import dataclasses
import itertools

import numpy as np
import pytest

from entgrowth.dynamics import QuadraticHamiltonian, generator, propagate
from entgrowth.errors import RankDeficient
from entgrowth.lyapunov import floquet_spectrum, qr_spectrum
from entgrowth.phase_space import SubsystemSpec, standard_omega
from entgrowth.scenarios import _chain_form, coupled_chain_form, inverted_pair_form
from entgrowth.subsystem import (
    expansion_matrix,
    select_columns,
    subsystem_exponent_algebraic,
    subsystem_exponent_volumetric,
)
from reference import inverted_pair_exponents, random_covariance, random_symplectic

PAIR_HAM = QuadraticHamiltonian.constant(inverted_pair_form())


@pytest.fixture(scope="module")
def pair_spectrum():
    return qr_spectrum(PAIR_HAM, 120.0, 0.01)


def test_darboux_rows_first_and_second_mode():
    theta = SubsystemSpec.first_modes(1, 2).selector
    assert np.array_equal(theta, np.eye(4)[:2])
    theta2 = SubsystemSpec.modes([1], 2).selector
    assert np.array_equal(theta2, np.eye(4)[2:])


def test_darboux_rows_rotated():
    rng = np.random.default_rng(3)
    s = random_symplectic(2, rng)
    SubsystemSpec(SubsystemSpec.first_modes(1, 2).selector @ s)  # must not raise


def test_expansion_matrix_identity_and_isometry(pair_spectrum):
    theta = pair_spectrum.basis[:2]
    f = expansion_matrix(theta, pair_spectrum)
    assert np.allclose(f, np.hstack([np.eye(2), np.zeros((2, 2))]), atol=1e-10)
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(2, 4))
    f = expansion_matrix(rows, pair_spectrum)
    assert np.allclose(np.linalg.norm(f, axis=1), np.linalg.norm(rows, axis=1))
    assert np.allclose(f @ pair_spectrum.basis, rows, atol=1e-12)


def test_select_columns_identity_block():
    f = np.hstack([np.eye(2), np.zeros((2, 2))])
    indices, margins = select_columns(f)
    assert indices == [0, 1]
    assert margins[0] == 1.0


def test_select_columns_skips_duplicate():
    col = np.array([1.0, 2.0])
    f = np.column_stack([col, col, np.array([0.0, 1.0]), np.array([1.0, 0.0])])
    indices, _ = select_columns(f)
    assert indices == [0, 2]


def test_select_columns_generic_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        f = rng.normal(size=(2, 4))
        indices, _ = select_columns(f)
        assert indices == [0, 1]


def test_select_columns_rank_deficient():
    f = np.zeros((2, 4))
    f[0, 0] = 1.0
    with pytest.raises(RankDeficient) as err:
        select_columns(f)
    assert err.value.margins is not None


def test_algebraic_full_system_volume_conserved(pair_spectrum):
    sub = SubsystemSpec.first_modes(2, 2)   # the whole system
    rep = subsystem_exponent_algebraic(sub, pair_spectrum)
    assert rep.indices == (0, 1, 2, 3)
    assert abs(rep.lambda_a) < 4 * pair_spectrum.residual + 1e-3


def test_algebraic_generic_subsystem(pair_spectrum):
    rep = subsystem_exponent_algebraic(SubsystemSpec.first_modes(1, 2), pair_spectrum)
    expected = inverted_pair_exponents()
    assert rep.indices == (0, 1)
    assert abs(rep.lambda_a - (expected[0] + expected[1])) < 5e-3
    assert rep.generic_agrees


def test_algebraic_conjugate_pair_alignment(pair_spectrum):
    # A Darboux plane can only pair directions whose exponents sum to >= 0:
    # the symplectic pairing of two contracting directions vanishes, so the
    # smallest-exponent pair is unreachable and the conjugate pair
    # (lambda_2, lambda_3) with zero sum is the extreme non-generic case.
    basis = pair_spectrum.basis
    omega = standard_omega(2)
    pairing = basis[1] @ omega @ basis[2]
    assert abs(pairing) > 1e-3   # nondegenerate, so a Darboux plane exists
    theta = np.vstack([basis[1] / pairing, basis[2]])
    rep = subsystem_exponent_algebraic(SubsystemSpec(theta), pair_spectrum)
    assert rep.indices == (1, 2)
    lam = pair_spectrum.exponents
    assert abs(rep.lambda_a - (lam[1] + lam[2])) < 1e-12
    assert abs(rep.lambda_a) < 6 * pair_spectrum.residual + 1e-3   # conjugate pair sums to 0
    assert not rep.generic_agrees


def test_degenerate_clusters_give_the_same_exponent_in_every_order():
    # two uncoupled identical inverted oscillators: exponents (1, 1, -1, -1)
    # in two clusters, whose order within a cluster is the eigensolver's.
    # Mode 1 alone takes one direction of each cluster, whichever the
    # order, and lambda_A = 1 - 1 = 0: its vacuum stays a product state
    ham = QuadraticHamiltonian.constant(_chain_form([-1.0, -1.0], 0.0))
    lyap = floquet_spectrum(generator(ham, 0.0))
    assert np.allclose(lyap.exponents, [1.0, 1.0, -1.0, -1.0], atol=1e-12)
    sub = SubsystemSpec.first_modes(1, 2)
    assert abs(subsystem_exponent_algebraic(sub, lyap).lambda_a) < 1e-12
    for upper, lower in itertools.product([(0, 1), (1, 0)], [(2, 3), (3, 2)]):
        rep = subsystem_exponent_algebraic(
            sub, dataclasses.replace(lyap, basis=lyap.basis[list(upper + lower)]))
        assert abs(rep.lambda_a) < 1e-12
        assert rep.indices[0] in (0, 1) and rep.indices[1] in (2, 3)


def test_contracting_pair_has_zero_symplectic_pairing(pair_spectrum):
    basis = pair_spectrum.basis
    omega = standard_omega(2)
    # both directions decay under M(t)^T, and the pairing is flow-invariant
    assert abs(basis[2] @ omega @ basis[3]) < 1e-4


def test_algebraic_darboux_basis_independence(pair_spectrum):
    # same plane, different Darboux basis: exponent unchanged
    sub = SubsystemSpec.first_modes(1, 2)
    rep1 = subsystem_exponent_algebraic(sub, pair_spectrum)
    theta = sub.selector.copy()
    rot = np.array([[np.cos(0.9), np.sin(0.9)], [-np.sin(0.9), np.cos(0.9)]])
    rep2 = subsystem_exponent_algebraic(SubsystemSpec(rot @ theta), pair_spectrum)
    assert abs(rep1.lambda_a - rep2.lambda_a) < 1e-9


def test_volumetric_stable_flow_zero_slope():
    ham = QuadraticHamiltonian.constant(np.eye(4))
    rep = subsystem_exponent_volumetric(SubsystemSpec.first_modes(1, 2),
                                        propagate(ham, 20.0, 0.01, store_every=10))
    assert abs(rep.slope) < 0.01


def test_volumetric_matches_algebraic(pair_spectrum):
    sub = SubsystemSpec.first_modes(1, 2)
    alg = subsystem_exponent_algebraic(sub, pair_spectrum)
    vol = subsystem_exponent_volumetric(sub, propagate(PAIR_HAM, 24.0, 0.002, store_every=60))
    assert abs(vol.slope - alg.lambda_a) <= 0.02 * abs(alg.lambda_a)


def test_volumetric_independent_of_reference_metric():
    sub = SubsystemSpec.first_modes(1, 2)
    rng = np.random.default_rng(11)
    series = propagate(PAIR_HAM, 24.0, 0.002, store_every=60)
    rep_id = subsystem_exponent_volumetric(sub, series=series, g0=np.eye(4))
    g_rand = random_covariance(2, rng, mixed=False)
    rep_rand = subsystem_exponent_volumetric(sub, series=series, g0=g_rand)
    tol = 2 * (rep_id.stderr + rep_rand.stderr) + 1e-4
    assert abs(rep_id.slope - rep_rand.slope) < max(tol, 2e-3)


def test_volumetric_complementarity():
    # pure-state dynamics: both sides of the bipartition grow at one rate
    series = propagate(PAIR_HAM, 24.0, 0.002, store_every=60)
    rep_a = subsystem_exponent_volumetric(SubsystemSpec.first_modes(1, 2), series=series,
                                          g0=np.eye(4))
    rep_b = subsystem_exponent_volumetric(SubsystemSpec.modes([1], 2), series=series,
                                          g0=np.eye(4))
    assert abs(rep_a.slope - rep_b.slope) < max(2 * (rep_a.stderr + rep_b.stderr), 2e-3)


def test_exponent_bounds_on_random_subsystems(pair_spectrum):
    rng = np.random.default_rng(13)
    lam = pair_spectrum.exponents
    generic = lam[0] + lam[1]
    slack = 4 * pair_spectrum.residual
    for _ in range(50):
        s = random_symplectic(2, rng)
        sub = SubsystemSpec(SubsystemSpec.first_modes(1, 2).selector @ s)
        rep = subsystem_exponent_algebraic(sub, pair_spectrum)
        assert -slack <= rep.lambda_a <= generic + slack


def test_chain_volumetric_vs_algebraic():
    ham = QuadraticHamiltonian.constant(coupled_chain_form())
    lyap = qr_spectrum(ham, 120.0, 0.01)
    sub = SubsystemSpec.first_modes(1, 4)
    alg = subsystem_exponent_algebraic(sub, lyap)
    vol = subsystem_exponent_volumetric(sub, propagate(ham, 24.0, 0.002, store_every=60))
    assert abs(vol.slope - alg.lambda_a) <= 0.02 * abs(alg.lambda_a)
