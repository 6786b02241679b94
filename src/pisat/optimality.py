"""Weighted 1-norm allocation problem and the equilibrium optimality
certificate.

The reference problem: minimize sum_i gamma_i |x_i| over the steady
states reachable with box-bounded inputs,

    min ||diag(gamma) x||_1   s.t.  -diag(a) x + b v + w = 0,  -1 <= v <= 1.

When diag(gamma) A^-1 B is a strictly column-dominant M-matrix, the
saturated closed-loop equilibrium attains this optimum.  The
certificate proves it from the equilibrium alone: a dual point read
off the equilibrium's saturation pattern gives a weak-duality lower
bound on the optimum (Boyd and Vandenberghe, Convex Optimization,
ch. 5), and the equilibrium cost minus that bound bounds its
suboptimality.  Only when that gap exceeds the tolerance is the LP
solved, and the certificate records that the fallback ran.

The LP is solved on the x-eliminated epigraph form by a dense
two-phase simplex with Bland's rule, so no external solver is
involved.  Each pivot is one vectorized rank-one update of the whole
tableau and each entering and leaving choice is made on whole columns;
the path and every rounding match a row-by-row elimination.  Runs are
deterministic at a fixed BLAS thread count (the pricing row is a
matrix-vector product).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import equilibrium, matrixlab, model, sector
from .errors import (ConditionViolated, DimensionMismatch, SolverFailure,
                     UnsupportedVariant)

_PIVOT_EPS = 1e-9
_MIN_PIVOTS = 10_000


@dataclass(frozen=True, eq=False)
class AllocationSolution:
    """Optimal steady state x_star with the input v_star achieving it,
    and the simplex pivots the solve took."""

    x_star: np.ndarray
    v_star: np.ndarray
    cost: float
    status: str
    pivots: int


@dataclass(frozen=True, eq=False)
class OptimalityCertificate:
    """Optimality of the closed-loop equilibrium for the allocation LP.

    ``dual_gap`` = equilibrium_cost - dual_bound bounds the equilibrium's
    suboptimality.  ``lp`` is None unless that gap exceeded the
    tolerance and the simplex ran.
    """

    passed: bool
    equilibrium_cost: float
    dual_bound: float
    dual_gap: float
    sign_structure_error: float
    tolerance: float
    eq: equilibrium.EquilibriumResult
    lp: AllocationSolution | None

    @property
    def lp_fallback(self) -> bool:
        return self.lp is not None

    @property
    def lp_cost(self) -> float | None:
        return None if self.lp is None else self.lp.cost

    @property
    def cost_gap(self) -> float:
        """The gap the pass rule compared with the tolerance: the dual
        gap, or |equilibrium_cost - lp_cost| after the fallback."""
        if self.lp is None:
            return self.dual_gap
        return abs(self.equilibrium_cost - self.lp.cost)


def _gamma_vector(gamma, n: int) -> np.ndarray:
    g = np.atleast_1d(np.asarray(gamma, dtype=float))
    if g.ndim != 1 or g.size != n:
        raise DimensionMismatch(f"gamma must be a vector of length {n}")
    if np.any(g <= 0.0) or not np.all(np.isfinite(g)):
        raise ValueError("gamma must be positive and finite")
    return g


def _weighted_system(g: np.ndarray, plant: model.PlantModel,
                     w: np.ndarray):
    """gm = diag(gamma) A^-1 B and gw = diag(gamma) A^-1 w."""
    if w.size != plant.n:
        raise DimensionMismatch("disturbance width disagrees with plant")
    return (g / plant.a)[:, None] * plant.b, g / plant.a * w


def check_gamma_condition(gamma, plant: model.PlantModel) -> bool:
    """True iff diag(gamma) A^-1 B is a strictly column-dominant M-matrix."""
    g = _gamma_vector(gamma, plant.n)
    m = (g / plant.a)[:, None] * plant.b
    return matrixlab.is_m_matrix(m) and matrixlab.is_strictly_column_dominant(m)


def admissible_gamma(plant: model.PlantModel) -> np.ndarray:
    """A weight vector that satisfies the certificate condition.

    Taken from the column dominance scaling of A^-1 B and normalized so
    the largest weight is one.
    """
    d = matrixlab.column_dominance_scaling(plant.b / plant.a[:, None])
    return d / float(np.max(d))


def _pivot_budget(rows: int, cols: int) -> int:
    """Pivot guard for the two-phase solve of a rows x cols system.

    One pivot per entry of the phase-one tableau (the system plus one
    artificial column per row), and never fewer than 10,000.  Bland's
    path on generated allocation LPs grows about as n^2.5 (7,852 pivots
    at n = 200, where this guard allows 960,000, and 11,681 at n = 240),
    so a fixed guard would cut off feasible, bounded problems that are
    merely large.
    """
    return max(_MIN_PIVOTS, rows * (cols + rows))


def _pivot(tab: np.ndarray, row: int, col: int) -> None:
    # one rank-one update: every entry gets the same multiply and
    # subtract as a row-by-row elimination; rows with a zero in the
    # pivot column subtract an exact zero
    tab[row] /= tab[row, col]
    f = tab[:, col].copy()
    f[row] = 0.0
    tab -= f[:, None] * tab[row]


def _run_simplex(tab: np.ndarray, basis: list[int], cost: np.ndarray,
                 ncols: int, budget: int) -> int:
    """Optimize min cost @ y on the tableau in place (Bland's rule).

    Returns the number of pivots made; raises SolverFailure when it
    reaches ``budget``.
    """
    pivots = 0
    while True:
        reduced = cost[:ncols] - cost[basis] @ tab[:, :ncols]
        entering = np.flatnonzero(reduced < -_PIVOT_EPS)
        if entering.size == 0:
            return pivots
        entering = int(entering[0])
        col = tab[:, entering]
        rows = np.flatnonzero(col > _PIVOT_EPS)
        ratios = tab[rows, -1] / col[rows]
        # sequential scan: the tolerance ties are not transitive, so the
        # smallest ratio is not always the row Bland's rule leaves by
        best_ratio = np.inf
        leave = -1
        for i, ratio in zip(rows.tolist(), ratios.tolist()):
            if ratio < best_ratio - _PIVOT_EPS or (
                    abs(ratio - best_ratio) <= _PIVOT_EPS
                    and (leave < 0 or basis[i] < basis[leave])):
                best_ratio = ratio
                leave = i
        if leave < 0:
            raise SolverFailure("objective unbounded on the tableau")
        _pivot(tab, leave, entering)
        basis[leave] = entering
        pivots += 1
        if pivots >= budget:
            raise SolverFailure("pivot guard exceeded")


def _simplex(c: np.ndarray, a_eq: np.ndarray,
             b_eq: np.ndarray) -> tuple[np.ndarray, int]:
    """Two-phase dense simplex for min c @ y s.t. a_eq y = b_eq, y >= 0.

    Returns the optimal y and the pivots made: phase one, the drive-out
    of artificial variables and phase two.
    """
    a = np.array(a_eq, dtype=float)
    b = np.array(b_eq, dtype=float)
    m, ncols = a.shape
    neg = b < 0.0
    a[neg] *= -1.0
    b[neg] *= -1.0

    tab = np.hstack([a, np.eye(m), b[:, None]])
    basis = list(range(ncols, ncols + m))
    phase1 = np.concatenate([np.zeros(ncols), np.ones(m)])
    budget = _pivot_budget(m, ncols)
    pivots = _run_simplex(tab, basis, phase1, ncols + m, budget)
    if float(phase1[basis] @ tab[:, -1]) > 1e-7 * (1.0 + float(np.max(np.abs(b)))):
        raise SolverFailure("phase one failed to reach feasibility")
    budget -= pivots

    # drive leftover artificial variables out of the basis
    drop_rows = []
    for i in range(m):
        if basis[i] >= ncols:
            row = tab[i, :ncols]
            j = int(np.argmax(np.abs(row)))
            if abs(row[j]) > _PIVOT_EPS:
                _pivot(tab, i, j)
                basis[i] = j
                pivots += 1
            else:
                drop_rows.append(i)
    if drop_rows:
        keep = [i for i in range(m) if i not in drop_rows]
        tab = tab[keep]
        basis = [basis[i] for i in keep]

    tab = np.hstack([tab[:, :ncols], tab[:, -1:]])
    cost = np.concatenate([c, [0.0]])
    pivots += _run_simplex(tab, basis, cost, ncols, budget)

    y = np.zeros(ncols)
    y[basis] = tab[:, -1]
    return y, pivots


def _allocation_lp(gm: np.ndarray, gw: np.ndarray):
    """Standard-form epigraph LP (c, a_eq, b_eq) of min ||gm v + gw||_1
    over -1 <= v <= 1, in the variables y = [v + 1, t, slack1, slack2,
    slack3] >= 0."""
    n = gw.size
    eye = np.eye(n)
    zero = np.zeros((n, n))
    a_eq = np.block([
        [gm, -eye, eye, zero, zero],
        [-gm, -eye, zero, eye, zero],
        [eye, zero, zero, zero, eye],
    ])
    ones = np.ones(n)
    b_eq = np.concatenate([gm @ ones - gw, gw - gm @ ones, 2.0 * ones])
    c = np.concatenate([np.zeros(n), np.ones(n), np.zeros(3 * n)])
    return c, a_eq, b_eq


def solve_weighted_l1_lp(gamma, plant: model.PlantModel, w) -> AllocationSolution:
    """Solve the weighted 1-norm steady-state allocation problem.

    The state is eliminated through x = A^-1 (B v + w) and |x| is lifted
    into epigraph variables t, giving a standard-form LP in (v, t) that
    is always feasible (v = 0).  Deterministic for fixed inputs.
    """
    g = _gamma_vector(gamma, plant.n)
    w = np.atleast_1d(np.asarray(w, dtype=float))
    gm, gw = _weighted_system(g, plant, w)
    y, pivots = _simplex(*_allocation_lp(gm, gw))
    v = y[:plant.n] - 1.0
    if np.max(np.abs(v) - 1.0) > 1e-9:
        raise SolverFailure("recovered input violates its box bound")
    v = np.clip(v, -1.0, 1.0)
    x = (plant.b @ v + w) / plant.a
    cost = float(np.sum(g * np.abs(x)))
    return AllocationSolution(x, v, cost, "optimal", pivots)


def _dual_point(gm: np.ndarray, u0: np.ndarray) -> np.ndarray:
    """Dual point of the allocation LP read off the stationary input u0.

    y_S = -sign(u0_S) on the saturated inputs S (|u0| > 1), the sign of
    x0_S.  On the rest J, gm[J, J]^T y_J = -gm[S, J]^T y_S makes
    (gm^T y)_J vanish; that system is nonsingular whenever gm is a
    strictly column-dominant M-matrix, since each principal submatrix
    is one too.  The result is clipped to [-1, 1]^n.
    """
    sat = np.abs(u0) > 1.0
    free = ~sat
    y = np.zeros(u0.size)
    y[sat] = -np.sign(u0[sat])
    y[free] = np.linalg.solve(gm[np.ix_(free, free)].T,
                              -(y[sat] @ gm[np.ix_(sat, free)]))
    return np.clip(y, -1.0, 1.0)


def _dual_value(gm: np.ndarray, gw: np.ndarray, y: np.ndarray) -> float:
    """D(y) = y . gw - ||gm^T y||_1, a lower bound on min ||gm v + gw||_1
    over -1 <= v <= 1 for every y in [-1, 1]^n (weak duality)."""
    return float(y @ gw - np.sum(np.abs(y @ gm)))


def certify_equilibrium_optimality(
        gamma, plant: model.PlantModel, ctrl: model.ControllerSpec, w,
        tol: float = 1e-7,
        eq: equilibrium.EquilibriumResult | None = None,
) -> OptimalityCertificate:
    """Check that the closed-loop equilibrium solves the allocation LP.

    Requires the saturation pair, the decentralized variant, and the
    weight condition on diag(gamma) A^-1 B (ConditionViolated otherwise,
    meaning the certificate is not applicable).  x0 = A^-1 (B sat(u0) +
    w) is feasible for the LP, so the check passes, with no LP solve,
    when its cost exceeds the dual bound from u0 by at most ``tol`` and
    the sign structure x0_i = -s_i dz(u0_i) holds to ``tol``.  A larger
    gap runs the simplex, and the equilibrium cost must then match the
    LP optimum to ``tol``.  ``eq`` is the equilibrium of this plant,
    controller and w, if the caller has solved it already (to a
    residual well below ``tol``); otherwise it is solved here, to
    min(1e-3 tol, 1e-10).
    """
    if plant.pair.kind != sector.KIND_SATURATION:
        raise UnsupportedVariant("certificate requires the saturation pair")
    if ctrl.variant != model.VARIANT_DECENTRALIZED:
        raise UnsupportedVariant("certificate requires the decentralized variant")
    g = _gamma_vector(gamma, plant.n)
    if not check_gamma_condition(g, plant):
        raise ConditionViolated(
            "diag(gamma) A^-1 B is not a strictly column-dominant M-matrix")
    w = np.atleast_1d(np.asarray(w, dtype=float))
    gm, gw = _weighted_system(g, plant, w)
    if eq is None:
        eq = equilibrium.solve_equilibrium(plant, ctrl, w,
                                           tol=min(1e-3 * tol, 1e-10))
    eq_cost = float(np.sum(g * np.abs(eq.x0)))
    bound = _dual_value(gm, gw, _dual_point(gm, eq.u0))
    deadzone = eq.u0 - np.clip(eq.u0, -1.0, 1.0)
    sign_err = float(np.max(np.abs(eq.x0 + ctrl.s * deadzone)))
    lp = None
    passed = eq_cost - bound <= tol
    if not passed:
        lp = solve_weighted_l1_lp(g, plant, w)
        passed = abs(eq_cost - lp.cost) <= tol and lp.status == "optimal"
    return OptimalityCertificate(passed and sign_err <= tol, eq_cost, bound,
                                 eq_cost - bound, sign_err, tol, eq, lp)
