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

The LP is solved in the x-eliminated form min ||gm v + gw||_1 over the
input box, with gm = diag(gamma) A^-1 B and gw = diag(gamma) A^-1 w, by
one bounded-variable primal simplex on n rows, so no external solver
is involved.  The box is kept as variable bounds, and Bland's rule,
which cannot cycle (Bland, Math. Oper. Res. 2(2), 1977), picks both
the entering column and, among the rows tied at the smallest ratio,
the leaving one; each pivot is one vectorized rank-one update of the
whole tableau.  The simplex starts from a crash basis (Bixby, ORSA J.
Computing 4(3), 1992): the saturation pattern of the box LCP
B v + w, v in [-1, 1]^n, which the equilibrium's pattern loop solves.
That pattern is primal feasible for every gamma, and by the result
above it is optimal when the condition on gamma holds, so the simplex
then takes no step.  Runs are deterministic at a fixed BLAS thread
count (the pattern and the start's tableau come from BLAS solves and
products).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import equilibrium, matrixlab, model, sector
from .errors import (ConditionViolated, DimensionMismatch, SolverFailure,
                     UnsupportedVariant)

_PIVOT_EPS = 1e-9
_START_TOL = 1e-9
_MIN_PIVOTS = 10_000


@dataclass(frozen=True, eq=False)
class AllocationSolution:
    """Optimal steady state x_star with the input v_star achieving it,
    and the simplex pivots and bound flips the solve took."""

    x_star: np.ndarray
    v_star: np.ndarray
    cost: float
    pivots: int
    bound_flips: int


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


def _weighted_system(g: np.ndarray, plant: model.PlantModel,
                     w: np.ndarray):
    """gm = diag(gamma) A^-1 B and gw = diag(gamma) A^-1 w."""
    if w.size != plant.n:
        raise DimensionMismatch("disturbance width disagrees with plant")
    return (g / plant.a)[:, None] * plant.b, g / plant.a * w


def check_gamma_condition(gamma, plant: model.PlantModel) -> bool:
    """True iff diag(gamma) A^-1 B is a strictly column-dominant M-matrix.

    The plant proved B an M-matrix, and a positive diagonal scaling of
    one is one, so only the dominance is left to test.
    """
    g = model._positive_vector(gamma, "gamma", plant.n)
    return matrixlab.is_strictly_column_dominant((g / plant.a)[:, None]
                                                 * plant.b)


def admissible_gamma(plant: model.PlantModel) -> np.ndarray:
    """A weight vector that satisfies the certificate condition.

    The plant's column dominance scaling of A^-1 B, normalized so the
    largest weight is one.
    """
    d = plant.gain_scaling
    return d / float(np.max(d))


def _pivot_budget(rows: int, cols: int) -> int:
    """Step guard for the bounded simplex on a rows x cols system.

    One step, pivot or bound flip, per entry of the tableau and a basis
    square (4 n^2 on the n x 3n allocation system), and never fewer
    than 10,000.  From the loop's pattern the path on generated ratio-4
    allocation LPs takes no step under an admissible gamma, and 30-75
    steps at n = 40 and 187-282 at n = 100 under a random gamma in
    [0.1, 10]^n that breaks the condition; from the all-low start at
    v = -1 it takes about n^2 / 3 steps (18,993 at n = 240, where this
    guard allows 230,400).  So the guard stops only a solve that has
    lost its way, never one that is merely large.
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


def _ratio_test(rows: np.ndarray, ratios: np.ndarray,
                basis: np.ndarray) -> tuple[int, float]:
    """The leaving row among ``rows`` and the step, or (-1, inf).

    The step is the smallest ratio; of the rows whose ratio lies within
    _PIVOT_EPS of it, the one with the lowest basis index leaves.
    """
    if rows.size == 0:
        return -1, np.inf
    best = float(ratios.min())
    tied = rows[ratios <= best + _PIVOT_EPS]
    return int(tied[np.argmin(basis[tied])]), best


def _pattern_start(gm: np.ndarray, gw: np.ndarray, pieces: np.ndarray):
    """The simplex's first basis from a saturation pattern.

    ``pieces[j]`` is 0 (v_j = -1), 1 (free) or 2 (v_j = 1), the piece of
    saturation that input j takes, so a saturated y_j = v_j + 1 sits
    nonbasic at pieces[j].  Row j of the basis holds y_j for a free input
    and, on a saturated one, p_j or q_j by the sign of that row's
    residual.  The basis matrix is the free block gm[J, J] bordered by
    unit columns, so one solve on J gives the tableau B^-1 [gm, -I, I]
    and the basic values.  A basic value outside its bounds by more than
    _START_TOL raises SolverFailure: the simplex never pivots from an
    infeasible start.  Returns the tableau over its reduced-cost row, the
    basis, the basic values, the nonbasic sides and the upper bounds.
    """
    n = gw.size
    idx = np.arange(n)
    free = pieces == 1
    sat = ~free
    # [gm, -I, I | rhs] over the cost row [0, 1, 1 | 0], with the
    # saturated y moved to the right side
    body = np.zeros((n + 1, 3 * n + 1))
    body[:n, :n] = gm
    body[idx, n + idx] = -1.0
    body[idx, 2 * n + idx] = 1.0
    body[:n, -1] = gm @ (1.0 - np.where(free, 0.0, pieces)) - gw
    body[n, n:-1] = 1.0
    rows = body[:n]
    rows[free] = np.linalg.solve(gm[np.ix_(free, free)], rows[free])
    rows[sat] -= gm[np.ix_(sat, free)] @ rows[free]
    # q_i - p_i is what is left of the saturated row's right side
    sign = np.where(rows[sat, -1] >= 0.0, 1.0, -1.0)
    rows[sat] *= sign[:, None]
    # each basic p or q costs one: price the saturated rows out
    body[n] -= rows[sat].sum(axis=0)
    basis = idx.copy()
    basis[sat] = np.where(sign > 0.0, 2 * n, n) + idx[sat]
    upper = np.concatenate([np.full(n, 2.0), np.full(2 * n, np.inf)])
    value = rows[:, -1].copy()
    bad = np.flatnonzero(~((value >= -_START_TOL)
                           & (value <= upper[basis] + _START_TOL)))
    if bad.size:
        k = bad[0]
        raise SolverFailure(
            f"start pattern infeasible: basic {'ypq'[basis[k] // n]}_{k} "
            f"= {value[k]:.6g} lies outside its bounds")
    # +1 nonbasic at the lower bound, -1 at the upper bound, 0 basic
    side = np.ones(3 * n)
    side[:n] = np.where(pieces == 2, -1.0, 1.0)
    side[basis] = 0.0
    return body[:, :-1], basis, value, side, upper


def _bounded_simplex(gm: np.ndarray, gw: np.ndarray,
                     pieces: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Minimize ||gm v + gw||_1 over -1 <= v <= 1.

    Bounded-variable primal simplex (Dantzig's upper-bounding
    technique; Chvatal, Linear Programming, ch. 8) on

        min 1 @ (p + q)  s.t.  gm v - p + q = -gw,  p, q >= 0,

    in the columns [y, p, q] with y = v + 1 in [0, 2]: n rows, 3n
    columns.  It starts from the basis that the saturation pattern
    ``pieces`` names (``_pattern_start``): free y basic, saturated y
    nonbasic at their bounds; the all-low pattern is the start at
    v = -1.  Bland's rule prices every step: the lowest-index column
    that lowers the cost enters, and ``_ratio_test`` picks the leaving
    row.  An entering y whose own range is the shortest step flips
    between its bounds without a pivot.

    Returns v and the pivots and bound flips made.
    """
    n = gw.size
    tab, basis, value, side, upper = _pattern_start(gm, gw, pieces)

    budget = _pivot_budget(n, 3 * n)
    pivots = flips = 0
    while True:
        entering = np.flatnonzero(-side * tab[n] > _PIVOT_EPS)
        if entering.size == 0:
            break
        j = int(entering[0])
        # basic values fall at the rate alpha as y_j moves off its bound
        alpha = side[j] * tab[:n, j]
        rows = np.flatnonzero(np.abs(alpha) > _PIVOT_EPS)
        rate = alpha[rows]
        room = np.where(rate > 0.0, value[rows],
                        upper[basis[rows]] - value[rows])
        leave, best = _ratio_test(rows, room / np.abs(rate), basis)
        if best < upper[j]:
            step = max(best, 0.0)
        elif np.isfinite(upper[j]):
            step = upper[j]
            leave = -1
        else:
            raise SolverFailure("objective unbounded on the tableau")
        value -= step * alpha
        if leave < 0:
            side[j] = -side[j]
            flips += 1
        else:
            out = basis[leave]
            side[out] = 1.0 if alpha[leave] > 0.0 else -1.0
            value[leave] = step if side[j] > 0.0 else upper[j] - step
            side[j] = 0.0
            _pivot(tab, leave, j)
            basis[leave] = j
            pivots += 1
        if pivots + flips >= budget:
            raise SolverFailure("pivot guard exceeded")

    y = np.where(side < 0.0, upper, 0.0)
    y[basis] = value
    return y[:n] - 1.0, pivots, flips


def _lcp_pattern(plant: model.PlantModel, w: np.ndarray) -> np.ndarray:
    """Saturation pattern of the box LCP B v + w, v in [-1, 1]^n.

    Its solution is v = sat(u) at the end of the pattern loop under
    saturation, for any positive s a.  The loop runs with s a = a from
    the pattern of u = 0, on ``saturation_deadzone(n)`` (a saturation
    plant's pair is that pair) whatever pair the plant has, because the
    LP's box is [-1, 1]^n; no controller is involved.
    """
    pair = plant.pair
    if pair.kind != sector.KIND_SATURATION:
        pair = sector.saturation_deadzone(plant.n)
    start = pair.piece_of(np.zeros((1, plant.n)))
    (u,), _, _ = equilibrium._pattern_loop(plant.b, pair, plant.a, w, start)
    v = np.clip(u, -1.0, 1.0)
    # a row whose x = v - u is zero within rounding has v on a knot; it is
    # free, basic at its bound, as the dual point takes |u0| = 1 as free
    tie = equilibrium._TIE_TOL * (np.abs(w) + np.abs(plant.b) @ np.abs(v))
    return np.where(plant.a * np.abs(u - v) <= tie, 1, pair.piece_of(u))


def solve_weighted_l1_lp(gamma, plant: model.PlantModel, w) -> AllocationSolution:
    """Solve the weighted 1-norm steady-state allocation problem.

    The state is eliminated through x = A^-1 (B v + w), and the weighted
    state is split into its positive and negative parts, giving an LP in
    v that is always feasible (v = 0).  The simplex starts at the
    saturation pattern of the loop's equilibrium (``_lcp_pattern``), the
    optimum whenever gamma meets the certificate condition, and a
    feasible start for every other gamma.  Deterministic for fixed
    inputs.
    """
    g = model._positive_vector(gamma, "gamma", plant.n)
    w = np.atleast_1d(np.asarray(w, dtype=float))
    gm, gw = _weighted_system(g, plant, w)
    v, pivots, flips = _bounded_simplex(gm, gw, _lcp_pattern(plant, w))
    if np.max(np.abs(v) - 1.0) > 1e-9:
        raise SolverFailure("recovered input violates its box bound")
    v = np.clip(v, -1.0, 1.0)
    x = (plant.b @ v + w) / plant.a
    cost = float(np.sum(g * np.abs(x)))
    return AllocationSolution(x, v, cost, pivots, flips)


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
        eq: equilibrium.EquilibriumResult,
        tol: float = 1e-7) -> OptimalityCertificate:
    """Check that the closed-loop equilibrium solves the allocation LP.

    Requires the saturation pair, the decentralized variant, and the
    weight condition on diag(gamma) A^-1 B (ConditionViolated otherwise,
    meaning the certificate is not applicable).  x0 = A^-1 (B sat(u0) +
    w) is feasible for the LP, so the check passes, with no LP solve,
    when its cost exceeds the dual bound from u0 by at most ``tol`` and
    the sign structure x0_i = -s_i dz(u0_i) holds to ``tol``.  A larger
    gap runs the simplex, and the equilibrium cost must then match the
    LP optimum to ``tol``.  ``eq`` is the equilibrium of this plant,
    controller and w, solved to a residual well below ``tol``.
    """
    if plant.pair.kind != sector.KIND_SATURATION:
        raise UnsupportedVariant("certificate requires the saturation pair")
    if ctrl.variant != model.VARIANT_DECENTRALIZED:
        raise UnsupportedVariant("certificate requires the decentralized variant")
    g = model._positive_vector(gamma, "gamma", plant.n)
    w = np.atleast_1d(np.asarray(w, dtype=float))
    gm, gw = _weighted_system(g, plant, w)
    # check_gamma_condition's test, on this gm
    if not matrixlab.is_strictly_column_dominant(gm):
        raise ConditionViolated(
            "diag(gamma) A^-1 B is not a strictly column-dominant M-matrix")
    eq_cost = float(np.sum(g * np.abs(eq.x0)))
    bound = _dual_value(gm, gw, _dual_point(gm, eq.u0))
    deadzone = eq.u0 - np.clip(eq.u0, -1.0, 1.0)
    sign_err = float(np.max(np.abs(eq.x0 + ctrl.s * deadzone)))
    lp = None
    passed = eq_cost - bound <= tol
    if not passed:
        lp = solve_weighted_l1_lp(g, plant, w)
        passed = abs(eq_cost - lp.cost) <= tol
    return OptimalityCertificate(passed and sign_err <= tol, eq_cost, bound,
                                 eq_cost - bound, sign_err, tol, lp)
