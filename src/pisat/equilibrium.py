"""Closed-loop equilibrium computation by contraction iteration.

For the decentralized PI anti-windup loop under a constant disturbance,
the stationary input u0 solves

    0 = h(u0) + S^-1 A^-1 B f(u0) + S^-1 A^-1 w.

After a diagonal change of variables that makes the coupling strictly
column-dominant, this becomes a fixed point of a map T that contracts
in the 1-norm with an explicitly computable bound g below one, so the
equilibrium is unique and, for any point zeta,
||zeta* - T(zeta)|| <= g / (1 - g) ||T(zeta) - zeta||.

Plain iteration needs about 1 / (1 - g) steps.  The solver instead takes
safeguarded Anderson steps (Walker and Ni, SIAM J. Numer. Anal. 2011):
the next point combines the last few images of T so as to cancel the
residual T(zeta) - zeta in least squares, and it is kept only if it
lowers the step; otherwise the plain step T(zeta) is taken.  On each
saturation pattern the stationary equation is linear, so one n x n
solve on the pattern the iteration settled polishes its result: one
step of a primal-dual active-set method (Hintermueller, Ito and
Kunisch, SIAM J. Optim. 13, 2002).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matrixlab, model, sector
from .errors import (DimensionMismatch, MaxIterationsExceeded,
                     UnsupportedVariant)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10 ** 6
ANDERSON_DEPTH = 5
# map evaluations a uniqueness probe may spend; the bundled and generated
# networks predict 117 to 2,660 plain steps
PROBE_BUDGET = 10 ** 5


@dataclass(frozen=True, eq=False)
class ContractionMap:
    """The scaled fixed-point map together with its contraction data.

    Iterates act on zeta = d * u.  ``contraction_bound`` is the 1-norm
    Lipschitz constant max(lam, max_i mu_i), always below one.
    """

    b_hat: np.ndarray
    w_hat: np.ndarray
    k: float
    lam: float
    mu: np.ndarray
    contraction_bound: float
    scaling_d: np.ndarray
    scaled_pair: sector.SectorPair

    def __post_init__(self):
        bkt = (self.b_hat - self.k * np.eye(self.b_hat.shape[0])).T
        object.__setattr__(self, "_bkt", bkt)

    def __call__(self, zeta):
        zeta = np.asarray(zeta, dtype=float)
        f = sector.eval_f(self.scaled_pair, zeta)
        h = zeta - f
        return -((1.0 - self.k) * h + f @ self._bkt + self.w_hat) / self.k

    @property
    def n(self) -> int:
        return self.w_hat.size


@dataclass(frozen=True, eq=False)
class FixedPointResult:
    zeta: np.ndarray
    iterations: int
    last_step: float


@dataclass(frozen=True, eq=False)
class EquilibriumResult:
    """Unique closed-loop equilibrium and solver diagnostics.

    ``cmap`` is the contraction map the solve iterated, so callers can
    measure its ratio and probe uniqueness without building it again.
    ``scale`` is max(1, ||w / (s a)||_inf, ||u0||_inf), the factor by
    which the rounding floor of the residual grows with the problem.
    ``pattern_solved`` says whether u0 came from the solve on the
    saturation pattern rather than from the iteration itself.
    """

    x0: np.ndarray
    z0: np.ndarray
    u0: np.ndarray
    residual_stationary: float
    iterations: int
    cmap: ContractionMap
    scale: float
    pattern_solved: bool


def build_contraction(plant: model.PlantModel, ctrl: model.ControllerSpec,
                      w) -> ContractionMap:
    """Assemble the contraction map for the stationary input equation.

    The diagonal scaling d comes from the column dominance scaling of
    S^-1 A^-1 B; the offset constant k exceeds max(1, 2 max_i b_hat_ii),
    which makes every per-coordinate Lipschitz factor strictly less
    than one.
    """
    if ctrl.variant != model.VARIANT_DECENTRALIZED:
        raise UnsupportedVariant("equilibrium solving covers the decentralized "
                                 "variant only")
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if w.size != plant.n:
        raise DimensionMismatch("disturbance width disagrees with plant")
    sa = ctrl.s * plant.a
    m = plant.b / sa[:, None]
    d = matrixlab.column_dominance_scaling(m)
    b_hat = d[:, None] * m / d[None, :]
    w_hat = d * (w / sa)
    k = max(1.0, 2.0 * float(np.max(np.diag(b_hat)))) + 1.0
    lam = (k - 1.0) / k
    col_off = np.sum(np.abs(b_hat), axis=0) - np.abs(np.diag(b_hat))
    mu = (k - (np.diag(b_hat) - col_off)) / k
    bound = max(lam, float(np.max(mu)))
    scaled = sector.scale_pair(plant.pair, d)
    return ContractionMap(b_hat, w_hat, k, lam, mu, bound, d, scaled)


def iterate_fixed_point(cmap: ContractionMap, zeta0,
                        tol: float = DEFAULT_TOL,
                        max_iter: int = DEFAULT_MAX_ITER) -> FixedPointResult:
    """Iterate the contraction map with safeguarded Anderson steps.

    Each iteration evaluates T at the current point zeta.  Once the 1-norm
    step ||T(zeta) - zeta|| is at most tol (1 - g) / g, with g the
    contraction bound, it returns the plain step T(zeta): by the
    a-posteriori contraction estimate, which holds for any zeta, that
    point is within tol of the fixed point in the 1-norm.  Otherwise the
    next point is the Anderson (type II) combination of the last
    ANDERSON_DEPTH + 1 images T(zeta_j), with the coefficients that fit
    the last residual T(zeta) - zeta by the residual differences in
    least squares.  An accelerated point is kept only if it lowers the
    step below that of the last kept point; else the differences are
    dropped and the iteration takes the plain step from the last kept
    point, which the contraction shrinks by g.  A plain step that does
    not shrink is returned as it is: the map has reached its
    floating-point floor, and a ``last_step`` above the threshold tells
    the caller so.  The result is always a plain step, so the estimate
    of the module docstring bounds its distance to the fixed point.

    ``zeta0`` may be a single vector or a stack of start points (rows).
    A stack is accelerated as one flattened vector with shared
    coefficients, and its step is the worst row's.  ``iterations`` and
    ``max_iter`` count evaluations of the map.
    """
    zeta = np.array(zeta0, dtype=float)
    if zeta.shape[-1:] != (cmap.n,):
        raise DimensionMismatch("start point width disagrees with the map")
    g = cmap.contraction_bound
    thresh = tol * (1.0 - g) / g
    images: list[np.ndarray] = []      # T(zeta_j) of the kept points
    residuals: list[np.ndarray] = []   # T(zeta_j) - zeta_j
    kept = np.inf
    delta = np.inf
    for it in range(1, max_iter + 1):
        nxt = cmap(zeta)
        res = nxt - zeta
        delta = float(np.max(np.sum(np.abs(res), axis=-1)))
        if delta <= thresh:
            return FixedPointResult(nxt, it, delta)
        if delta >= kept:
            if len(images) <= 1:    # zeta was the plain step: stalled
                return FixedPointResult(nxt, it, delta)
            del images[:-1], residuals[:-1]
            zeta = images[0].reshape(zeta.shape)
            continue
        kept = delta
        images.append(nxt.ravel())
        residuals.append(res.ravel())
        del images[:-ANDERSON_DEPTH - 1], residuals[:-ANDERSON_DEPTH - 1]
        zeta = nxt
        if len(images) > 1:
            gk = np.array(images)
            fk = np.array(residuals)
            coef = np.linalg.lstsq((fk[1:] - fk[:-1]).T, fk[-1],
                                   rcond=None)[0]
            zeta = (gk[-1] - coef @ (gk[1:] - gk[:-1])).reshape(zeta.shape)
    raise MaxIterationsExceeded(
        f"no convergence in {max_iter} iterations, last step {delta:.3e}")


def stationary_residual(plant: model.PlantModel, ctrl: model.ControllerSpec,
                        u, w) -> float:
    """Max-norm residual of the stationary input equation at u."""
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    f = sector.eval_f(plant.pair, u)
    sa = ctrl.s * plant.a
    return float(np.max(np.abs((u - f) + (f @ plant.b.T) / sa + w / sa)))


def _solve_on_pattern(plant: model.PlantModel, ctrl: model.ControllerSpec,
                      u, w) -> np.ndarray:
    """Solve the stationary equation on the saturation pattern of u.

    On the pieces holding u, f(v) = c + d v, and s a (v - f) + B f + w = 0
    reads (diag(s a (1 - d)) + B diag(d)) v = s a c - B c - w.  The matrix
    is nonsingular for every d in [0, 1]: with its rows divided by s a and
    the map's dominance scaling, each column is strictly dominant (d_j > 0)
    or a unit column (d_j = 0).
    """
    pair = plant.pair
    cols = np.arange(pair.n)
    piece = pair.piece_of(u)
    d, c = pair.slope[piece, cols], pair.icpt[piece, cols]
    sa = ctrl.s * plant.a
    return np.linalg.solve(np.diag(sa * (1.0 - d)) + plant.b * d,
                           sa * c - plant.b @ c - w)


def solve_equilibrium(plant: model.PlantModel, ctrl: model.ControllerSpec, w,
                      tol: float = DEFAULT_TOL) -> EquilibriumResult:
    """Compute the unique equilibrium of the decentralized loop.

    Runs one contraction iteration from zeta0 = -w_hat / k to ``tol``,
    then solves the stationary equation on the saturation pattern it
    settled, and keeps that candidate unless its stationary residual is
    the larger one.  The residual must be at most tol max(1,
    ||w / (s a)||_inf, ||u0||_inf), since its rounding grows with that
    scale (reported as ``scale``); otherwise MaxIterationsExceeded names
    it.  The plant and integrator states are back-substituted.  The
    result carries the map it solved, and ``iterations`` counts its
    evaluations, at most DEFAULT_MAX_ITER.
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    cmap = build_contraction(plant, ctrl, w)
    fp = iterate_fixed_point(cmap, -cmap.w_hat / cmap.k, tol)
    u0 = fp.zeta / cmap.scaling_d
    residual = stationary_residual(plant, ctrl, u0, w)
    cand = _solve_on_pattern(plant, ctrl, u0, w)
    cand_residual = stationary_residual(plant, ctrl, cand, w)
    pattern_solved = cand_residual <= residual
    if pattern_solved:
        u0, residual = cand, cand_residual
    load = float(np.max(np.abs(w / (ctrl.s * plant.a))))
    scale = max(1.0, load, float(np.max(np.abs(u0))))
    if not residual <= tol * scale:
        raise MaxIterationsExceeded(
            f"stationary residual {residual:.3e} above tol * scale "
            f"{tol * scale:.3e}")
    f0 = sector.eval_f(plant.pair, u0)
    x0 = (plant.b @ f0 + w) / plant.a
    z0 = (-ctrl.p * x0 - u0) / ctrl.r
    return EquilibriumResult(x0, z0, u0, residual, fp.iterations, cmap,
                             scale, pattern_solved)


def measure_contraction(cmap: ContractionMap, trials: int,
                        rng: np.random.Generator | None = None) -> float:
    """Empirical 1-norm Lipschitz ratio of the fixed-point map.

    Samples random point pairs at small and large scale (relative to the
    knots of the scaled pair) and adds axis-aligned probes, so for
    diagonal linear maps the exact operator norm is attained.  The
    returned maximum never exceeds the contraction bound.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if rng is None:
        rng = np.random.default_rng(0)
    n = cmap.n
    base = max(1.0, float(np.max(np.abs(cmap.scaled_pair.knots))))
    half = trials // 2 + 1
    pts_a = np.vstack([rng.normal(0.0, 0.3 * base, (half, n)),
                       rng.normal(0.0, 3.0 * base, (trials - half + 1, n))])
    pts_b = np.vstack([rng.normal(0.0, 0.3 * base, (half, n)),
                       rng.normal(0.0, 3.0 * base, (trials - half + 1, n))])
    eye = np.eye(n)
    for c in (0.25 * base, 4.0 * base):
        pts_a = np.vstack([pts_a, c * eye])
        pts_b = np.vstack([pts_b, np.zeros((n, n))])
    diff = np.sum(np.abs(pts_a - pts_b), axis=1)
    keep = diff > 0.0
    out = np.sum(np.abs(cmap(pts_a) - cmap(pts_b)), axis=1)
    return float(np.max(out[keep] / diff[keep]))


@dataclass(frozen=True, eq=False)
class UniquenessProbe:
    """The restarts' spread, or None when the probe is inconclusive; the
    map evaluations it ran and the plain steps it predicted."""

    spread: float | None
    evaluations: int
    predicted: int | float


def probe_uniqueness(cmap: ContractionMap, restarts: int = 50,
                     u_tol: float = 1e-8,
                     rng: np.random.Generator | None = None
                     ) -> UniquenessProbe:
    """Re-solve from many random starts and report the disagreement.

    The starts are drawn in a box around the origin scaled to the load
    of ``cmap`` and iterated together as one stack.  The spread is the
    sum over coordinates of the spread of the recovered stationary
    inputs, an upper bound on the pairwise 1-norm distance between any
    two restarts.  Small values support uniqueness.  If the stack stalls
    at the map's floating-point floor above ``u_tol``, the spread of the
    stalled rows is reported, so the caller's threshold decides.

    g < 1 already proves uniqueness; the probe only cross-checks it.  It
    first predicts the plain steps that shrink a start 2 radius n away
    (1-norm) below the stopping threshold at rate g, and is inconclusive
    without iterating when they exceed PROBE_BUDGET (g near one), or
    when the iteration runs through the budget.
    """
    if restarts < 2:
        raise ValueError("need at least two restarts")
    if rng is None:
        rng = np.random.default_rng(0)
    radius = 10.0 * (1.0 + float(np.max(np.abs(cmap.w_hat))))
    zeta0 = rng.uniform(-radius, radius, size=(restarts, cmap.n))
    ztol = u_tol * float(np.min(cmap.scaling_d))
    g = cmap.contraction_bound
    thresh = ztol * (1.0 - g) / g
    # a bound that rounds to one never reaches the threshold
    predicted = (max(1, math.ceil(math.log(thresh / (2.0 * radius * cmap.n))
                                  / math.log(g)))
                 if thresh > 0.0 else math.inf)
    if predicted > PROBE_BUDGET:
        return UniquenessProbe(None, 0, predicted)
    try:
        fp = iterate_fixed_point(cmap, zeta0, ztol, PROBE_BUDGET)
    except MaxIterationsExceeded:
        return UniquenessProbe(None, PROBE_BUDGET, predicted)
    u = fp.zeta / cmap.scaling_d
    return UniquenessProbe(float(np.sum(u.max(axis=0) - u.min(axis=0))),
                           fp.iterations, predicted)
