import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pisat import matrixlab, model, optimality, sector
from pisat.errors import CertificateFailure, DimensionMismatch, NotMMatrix, NotSymmetric


def test_known_m_matrices():
    assert matrixlab.is_m_matrix([[2.0, -1.0], [-1.0, 2.0]])
    assert matrixlab.is_m_matrix([[1.0]])
    assert matrixlab.is_m_matrix(np.eye(4))


def test_non_m_matrices():
    # positive off-diagonal entry breaks the Z-pattern
    assert not matrixlab.is_m_matrix([[2.0, 1.0], [-1.0, 2.0]])
    # singular Z-matrix
    assert not matrixlab.is_m_matrix([[1.0, -1.0], [-1.0, 1.0]])
    # negative eigenvalue
    assert not matrixlab.is_m_matrix([[1.0, -3.0], [-3.0, 1.0]])
    assert not matrixlab.is_m_matrix([[-1.0]])


def test_is_m_matrix_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        matrixlab.is_m_matrix(np.ones((2, 3)))


def test_m_matrix_matches_eigenvalue_oracle(rng):
    for _ in range(300):
        n = int(rng.integers(1, 7))
        off = rng.uniform(0.0, 1.0, (n, n))
        np.fill_diagonal(off, 0.0)
        # sweep through comfortably dominant to clearly failing
        diag = rng.uniform(0.1, 2.0) * np.maximum(off.sum(axis=1), 0.2)
        m = np.diag(diag) - off
        assert matrixlab.is_m_matrix(m) == oracles.is_m_matrix_eig(m)


def test_z_pattern():
    assert matrixlab.is_z_pattern([[5.0, -1.0], [0.0, -2.0]])
    assert not matrixlab.is_z_pattern([[5.0, 0.1], [0.0, 2.0]])


def test_column_dominance_scaling_margin_exactly_one():
    m = np.array([[2.0, -1.0], [-0.5, 3.0]])
    d = matrixlab.column_dominance_scaling(m)
    scaled = d[:, None] * m
    margins = np.diag(scaled) - (np.sum(np.abs(scaled), axis=0)
                                 - np.abs(np.diag(scaled)))
    # solving M^T d = 1 makes every weighted column margin exactly one
    np.testing.assert_allclose(margins, 1.0, atol=1e-12)
    assert matrixlab.is_strictly_column_dominant(scaled)


def test_column_dominance_scaling_rejects_non_m():
    with pytest.raises(NotMMatrix):
        matrixlab.column_dominance_scaling([[1.0, 2.0], [0.0, 1.0]])


def test_diagonal_lyapunov_scaling_upper_triangular():
    m = np.array([[1.0, -2.0], [0.0, 1.0]])
    q = matrixlab.diagonal_lyapunov_scaling(m)
    # from M w = 1, M^T v = 1: w = (3, 1), v = (1, 3), q = v / w
    np.testing.assert_allclose(q, [1.0 / 3.0, 3.0], atol=1e-12)
    qm = q[:, None] * m
    assert matrixlab.is_spd(qm + qm.T)


def test_diagonal_lyapunov_scaling_random(rng):
    for _ in range(100):
        n = int(rng.integers(1, 8))
        off = rng.uniform(0.0, 1.0, (n, n))
        np.fill_diagonal(off, 0.0)
        m = np.diag(off.sum(axis=1) + rng.uniform(0.2, 2.0, n)) - off
        q = matrixlab.diagonal_lyapunov_scaling(m)
        assert np.all(q > 0.0)
        qm = q[:, None] * m
        assert matrixlab.is_spd(qm + qm.T)


def test_is_spd():
    assert matrixlab.is_spd([[2.0, 1.0], [1.0, 2.0]])
    assert not matrixlab.is_spd([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NotSymmetric):
        matrixlab.is_spd([[1.0, 0.5], [0.0, 1.0]])


def test_strict_column_dominance():
    assert matrixlab.is_strictly_column_dominant([[3.0, -1.0], [-1.0, 3.0]])
    assert not matrixlab.is_strictly_column_dominant([[1.0, -1.0],
                                                      [-1.0, 1.0]])
    # dominance is checked columnwise, not rowwise
    assert not matrixlab.is_strictly_column_dominant([[2.0, -1.0],
                                                      [-3.0, 5.0]])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 10_000))
def test_scaling_makes_m_matrices_dominant(n, seed):
    rng = np.random.default_rng(seed)
    off = rng.uniform(0.0, 1.0, (n, n))
    np.fill_diagonal(off, 0.0)
    m = np.diag(off.sum(axis=1) + rng.uniform(0.05, 3.0, n)) - off
    if not matrixlab.is_m_matrix(m):
        return
    d = matrixlab.column_dominance_scaling(m)
    assert np.all(d > 0.0)
    assert matrixlab.is_strictly_column_dominant(d[:, None] * m)


def _count_solves(monkeypatch) -> list:
    calls = []
    solve = np.linalg.solve

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counting)
    return calls


def test_each_m_matrix_proof_is_a_solve_its_caller_uses(monkeypatch):
    # the scalings prove m an M-matrix by the solve whose result they
    # use; the gamma condition scales the coupling that the plant proved
    m = np.array([[2.0, -1.0], [-0.5, 3.0]])
    plant = model.PlantModel([1.0, 2.0], m, sector.saturation_deadzone(2))
    calls = _count_solves(monkeypatch)
    for call, want in ((lambda: matrixlab.is_m_matrix(m), 1),
                       (lambda: matrixlab.column_dominance_scaling(m), 1),
                       (lambda: matrixlab.diagonal_lyapunov_scaling(m), 2),
                       (lambda: optimality.check_gamma_condition(
                           [1.0, 1.0], plant), 0)):
        calls.clear()
        call()
        assert len(calls) == want


def test_column_dominance_scaling_raises_exactly_off_m_matrices(rng):
    # the eigenvalue-oracle family: Z-matrices from comfortably dominant
    # to clearly failing, proved by m^T d = 1 instead of m d = 1
    off_m = 0
    for _ in range(300):
        n = int(rng.integers(1, 7))
        off = rng.uniform(0.0, 1.0, (n, n))
        np.fill_diagonal(off, 0.0)
        diag = rng.uniform(0.1, 2.0) * np.maximum(off.sum(axis=1), 0.2)
        m = np.diag(diag) - off
        if matrixlab.is_m_matrix(m):
            assert np.all(matrixlab.column_dominance_scaling(m) > 0.0)
        else:
            off_m += 1
            with pytest.raises(NotMMatrix):
                matrixlab.column_dominance_scaling(m)
    assert 0 < off_m < 300
