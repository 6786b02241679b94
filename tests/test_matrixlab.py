import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pisat import equilibrium, matrixlab, model, optimality, sector, simulate
from pisat.errors import CertificateFailure, DimensionMismatch, NotMMatrix, NotSymmetric


def test_known_m_matrices():
    for m in ([[2.0, -1.0], [-1.0, 2.0]], [[1.0]], np.eye(4)):
        assert np.all(matrixlab.column_dominance_scaling(m) > 0.0)


def test_non_m_matrices():
    for m in ([[2.0, 1.0], [-1.0, 2.0]],    # positive off-diagonal entry
              [[1.0, -1.0], [-1.0, 1.0]],   # singular Z-matrix
              [[1.0, -3.0], [-3.0, 1.0]],   # negative eigenvalue
              [[-1.0]]):
        with pytest.raises(NotMMatrix):
            matrixlab.column_dominance_scaling(m)


def test_column_dominance_scaling_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        matrixlab.column_dominance_scaling(np.ones((2, 3)))


def test_m_matrix_matches_eigenvalue_oracle(rng):
    # the plant's proof, on A^-1 B, decides as the spectrum of B does
    for _ in range(300):
        n = int(rng.integers(1, 7))
        off = rng.uniform(0.0, 1.0, (n, n))
        np.fill_diagonal(off, 0.0)
        # sweep through comfortably dominant to clearly failing
        diag = rng.uniform(0.1, 2.0) * np.maximum(off.sum(axis=1), 0.2)
        m = np.diag(diag) - off
        a = rng.uniform(0.1, 10.0, n)
        try:
            model.PlantModel(a, m, sector.saturation_deadzone(n))
            proved = True
        except NotMMatrix:
            proved = False
        assert proved == oracles.is_m_matrix_eig(m)


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
    q = matrixlab.diagonal_lyapunov_scaling(
        m, matrixlab.column_dominance_scaling(m))
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
        q = matrixlab.diagonal_lyapunov_scaling(
            m, matrixlab.column_dominance_scaling(m))
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
    if not oracles.is_m_matrix_eig(m):
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
    # the plant proves B by the one solve of its gain scaling, and every
    # scaling of B reads it; the storage weights solve only for their
    # own proof of P B
    m = np.array([[2.0, -1.0], [-0.5, 3.0]])
    pair = sector.saturation_deadzone(2)
    plant = model.PlantModel([1.0, 2.0], m, pair)
    ctrl = model.ControllerSpec("decentralized", [1.0, 1.0], [0.1, 0.1],
                                [0.5, 0.5])
    v = matrixlab.column_dominance_scaling(m)
    calls = _count_solves(monkeypatch)
    for call, want in (
            (lambda: model.PlantModel([1.0, 2.0], m, pair), 1),
            (lambda: matrixlab.column_dominance_scaling(m), 1),
            (lambda: matrixlab.diagonal_lyapunov_scaling(m, v), 1),
            (lambda: equilibrium.build_contraction(plant, ctrl, [0.0, 0.0]),
             0),
            (lambda: optimality.admissible_gamma(plant), 0),
            (lambda: simulate.lyapunov_parameters(plant, ctrl), 1),
            (lambda: optimality.check_gamma_condition([1.0, 1.0], plant),
             0)):
        calls.clear()
        call()
        assert len(calls) == want


def test_derived_scalings_are_the_scalings(rng):
    # M-matrices B with rows scaled over 1e-6 .. 1e6 in a third of them,
    # and decays and anti-windup gains over 1e-3 .. 1e3: every scaling
    # read off the plant's one solve matches a solve of its own
    for i in range(200):
        n = int(rng.integers(1, 9))
        off = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.6)
        np.fill_diagonal(off, 0.0)
        b = np.diag(off.sum(axis=1) + rng.uniform(0.05, 2.0, n)) - off
        if i % 3 == 0:
            b *= 10.0 ** rng.uniform(-6.0, 6.0, n)[:, None]
        a, s = 10.0 ** rng.uniform(-3.0, 3.0, (2, n))
        plant = model.PlantModel(a, b, sector.saturation_deadzone(n))
        ctrl = model.ControllerSpec("decentralized", np.ones(n), np.ones(n),
                                    s)
        cmap = equilibrium.build_contraction(plant, ctrl, np.zeros(n))
        np.testing.assert_allclose(
            cmap.scaling_d,
            matrixlab.column_dominance_scaling(b / (s * a)[:, None]),
            rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(plant.gain_scaling / a,
                                   matrixlab.column_dominance_scaling(b),
                                   rtol=1e-12, atol=0.0)
        # gamma is the solve it always was, bit for bit
        d = matrixlab.column_dominance_scaling(b / a[:, None])
        assert np.array_equal(optimality.admissible_gamma(plant),
                              d / float(np.max(d)))


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
        if oracles.is_m_matrix_eig(m):
            assert np.all(matrixlab.column_dominance_scaling(m) > 0.0)
        else:
            off_m += 1
            with pytest.raises(NotMMatrix):
                matrixlab.column_dominance_scaling(m)
    assert 0 < off_m < 300
