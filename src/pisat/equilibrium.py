"""Closed-loop equilibrium computation on the pieces of the sector.

For the decentralized PI anti-windup loop under a constant disturbance,
the stationary input u0 solves

    s a (u0 - f(u0)) + B f(u0) + w = 0.

On a pattern, one affine piece of f per coordinate, f(u) = c + d u and
the equation is linear in u.  Row i of it, with v = f(u), reads

    s_i a_i (t - f_i(t)) + b_ii f_i(t) = -(sum_{j != i} b_ij v_j + w_i)

in t = u_i, and its left side is strictly increasing (slope
s_i a_i (1 - d) + b_ii d > 0), so given the other coordinates' v it has
one solution, whose piece its values at the piece boundaries order.
The solver is an active-set loop over patterns: each round solves the
equation on the current pattern and takes as the next one, for every
coordinate, the piece of that row's solution, with v = c + d u read off
the assumed pieces.  A pattern that predicts itself is exact: its solve
lies on its own pieces and ends the loop.  A cycle of patterns raises
MaxIterationsExceeded.  For saturation the stationary equation is a box
LCP in v = sat(u0) with the M-matrix B, which has exactly one solution
whatever s is (Cottle, Pang and Stone, The Linear Complementarity
Problem, 1992), and the loop is the primal-dual active-set method of
Hintermueller, Ito and Kunisch (SIAM J. Optim. 13, 2002) with
c = 1 / diag(B); it settles in a few rounds at every s.

After a diagonal change of variables that makes the coupling strictly
column-dominant, the equation is also a fixed point of a map T that
contracts in the 1-norm with an explicitly computable bound g below one,
which proves the equilibrium unique.  The solver returns that map, so
callers report g and measure its ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import matrixlab, model, sector
from .errors import (CertificateFailure, DimensionMismatch,
                     MaxIterationsExceeded, UnsupportedVariant)


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
class EquilibriumResult:
    """Unique closed-loop equilibrium and solver diagnostics.

    ``cmap`` is the contraction map of the problem, so callers can
    report its bound and measure its ratio without building it again.
    ``scale`` is max(1, ||w / (s a)||_inf, ||u0||_inf), the factor by
    which the rounding floor of the residual grows with the problem.
    ``iterations`` counts the rounds of the pattern loop.
    """

    x0: np.ndarray
    z0: np.ndarray
    u0: np.ndarray
    residual_stationary: float
    iterations: int
    cmap: ContractionMap
    scale: float


def _load(plant: model.PlantModel, ctrl: model.ControllerSpec,
          w) -> np.ndarray:
    if ctrl.variant != model.VARIANT_DECENTRALIZED:
        raise UnsupportedVariant("equilibrium solving covers the decentralized "
                                 "variant only")
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if w.size != plant.n:
        raise DimensionMismatch("disturbance width disagrees with plant")
    return w


def build_contraction(plant: model.PlantModel, ctrl: model.ControllerSpec,
                      w) -> ContractionMap:
    """Assemble the contraction map for the stationary input equation.

    The diagonal scaling d = s * plant.gain_scaling makes S^-1 A^-1 B
    strictly column-dominant (checked, CertificateFailure otherwise);
    the offset constant k exceeds max(1, 2 max_i b_hat_ii), which makes
    every per-coordinate Lipschitz factor strictly less than one.
    """
    w = _load(plant, ctrl, w)
    sa = ctrl.s * plant.a
    m = plant.b / sa[:, None]
    d = ctrl.s * plant.gain_scaling
    b_hat = d[:, None] * m / d[None, :]
    if not matrixlab.is_strictly_column_dominant(b_hat):
        raise CertificateFailure("b_hat failed the dominance check")
    w_hat = d * (w / sa)
    k = max(1.0, 2.0 * float(np.max(np.diag(b_hat)))) + 1.0
    lam = (k - 1.0) / k
    col_off = np.sum(np.abs(b_hat), axis=0) - np.abs(np.diag(b_hat))
    mu = (k - (np.diag(b_hat) - col_off)) / k
    bound = max(lam, float(np.max(mu)))
    scaled = sector.scale_pair(plant.pair, d)
    return ContractionMap(b_hat, w_hat, k, lam, mu, bound, d, scaled)


def stationary_residual(plant: model.PlantModel, ctrl: model.ControllerSpec,
                        u, w) -> float:
    """Max-norm residual of the stationary input equation at u."""
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    f = sector.eval_f(plant.pair, u)
    sa = ctrl.s * plant.a
    return float(np.max(np.abs((u - f) + (f @ plant.b.T) / sa + w / sa)))


def _next_pieces(phi: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Piece of each row's solution: the count of piece boundaries at
    which the row's left side, ``phi`` (K, n), lies below ``rhs``."""
    return np.sum(rhs[..., None, :] > phi, axis=-2)


def _pattern_loop(plant: model.PlantModel, ctrl: model.ControllerSpec, w,
                  start: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Walk the active-set loop from the patterns of ``start`` (k, n).

    On the pieces of a pattern, f(u) = c + d u, and s a (u - f) + B f + w
    = 0 reads (diag(s a (1 - d)) + B diag(d)) u = s a c - B c - w.  The
    matrix is nonsingular for every d in [0, 1]: with its rows divided by
    s a and the scaling s * gain_scaling, each column is strictly dominant
    (d_j > 0) or a unit column (d_j = 0).  A pattern's solve and its
    successor do not depend on the start that reached it, so each round
    moves a frontier of patterns to their successors, and a pattern that
    predicts itself is an end.  The frontier's new patterns are solved in
    one stacked ``np.linalg.solve``, which rounds each system as a solve
    of its own.  Without a cycle, r rounds meet r distinct patterns, so
    round ``len(solved) + 2`` raises MaxIterationsExceeded.  Returns the
    distinct ends' inputs, the rounds and the patterns solved.
    """
    pair, b = plant.pair, plant.b
    sa = ctrl.s * plant.a
    cols = np.arange(pair.n)
    off = b - np.diag(np.diag(b))
    # the row's left side at the lower end of each piece past the first
    lo = pair.lo[1:]
    edge = np.isinf(lo)
    at = np.where(edge, 0.0, lo)
    phi = np.where(edge, np.inf,
                   sa * at + (np.diag(b) - sa)
                   * (pair.icpt[1:] + pair.slope[1:] * at))
    solved = {}     # pattern bytes -> (u, predicted pattern)
    frontier = {pieces.tobytes(): pieces for pieces in start}
    rounds = 0
    while frontier:
        rounds += 1
        if rounds > len(solved) + 1:
            raise MaxIterationsExceeded(f"the patterns cycle by round {rounds}")
        new = {key: p for key, p in frontier.items() if key not in solved}
        if new:
            pieces = np.array(list(new.values()))
            d, c = pair.slope[pieces, cols], pair.icpt[pieces, cols]
            mats = b * d[:, None, :]
            mats[:, cols, cols] += sa * (1.0 - d)
            rhs = sa * c - (b @ c[..., None])[..., 0] - w
            x = np.linalg.solve(mats, rhs[..., None])[..., 0]
            v = c + d * x
            nxt = _next_pieces(phi, -((off @ v[..., None])[..., 0] + w))
            solved.update(zip(new, zip(x, nxt)))
        succ = [solved[key][1] for key in frontier]
        frontier = {p.tobytes(): p for key, p in zip(frontier, succ)
                    if p.tobytes() != key}
    # the walk met every solved pattern; those predicting themselves end it
    ends = [u for key, (u, p) in solved.items() if p.tobytes() == key]
    return np.array(ends), rounds, len(solved)


def solve_equilibrium(plant: model.PlantModel, ctrl: model.ControllerSpec,
                      w) -> EquilibriumResult:
    """Compute the unique equilibrium of the decentralized loop.

    Runs the pattern loop from the pattern of u = 0 and returns its last
    solve, which is exact on its pattern.  Its stationary residual is
    reported with max(1, ||w / (s a)||_inf, ||u0||_inf) as ``scale``,
    the factor by which its rounding grows, and callers judge it.  The
    plant and integrator states are back-substituted.  The result
    carries the contraction map of the problem, and ``iterations``
    counts the loop's rounds.
    """
    w = _load(plant, ctrl, w)
    cmap = build_contraction(plant, ctrl, w)
    start = plant.pair.piece_of(np.zeros((1, plant.n)))
    (u0,), rounds, _ = _pattern_loop(plant, ctrl, w, start)
    residual = stationary_residual(plant, ctrl, u0, w)
    load = float(np.max(np.abs(w / (ctrl.s * plant.a))))
    scale = max(1.0, load, float(np.max(np.abs(u0))))
    f0 = sector.eval_f(plant.pair, u0)
    x0 = (plant.b @ f0 + w) / plant.a
    z0 = (-ctrl.p * x0 - u0) / ctrl.r
    return EquilibriumResult(x0, z0, u0, residual, rounds, cmap, scale)


def measure_contraction(cmap: ContractionMap, trials: int,
                        rng: np.random.Generator | None = None) -> float:
    """Empirical 1-norm Lipschitz ratio of the fixed-point map.

    Samples random point pairs at small and large scale (relative to the
    knots of the scaled pair) and adds axis-aligned probes, so for
    diagonal linear maps the exact operator norm is attained.  The
    returned maximum never exceeds the contraction bound.  The load
    cancels in T(a) - T(b), so the ratio is measured on the map without
    it: at loads of 1e6 and more its rounding would stay.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if rng is None:
        rng = np.random.default_rng(0)
    n = cmap.n
    cmap = replace(cmap, w_hat=np.zeros(n))
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
    """The restarts' spread and the distinct patterns their loop solved."""

    spread: float
    solves: int


def probe_uniqueness(plant: model.PlantModel, ctrl: model.ControllerSpec,
                     w, restarts: int = 50,
                     rng: np.random.Generator | None = None
                     ) -> UniquenessProbe:
    """Re-solve from many random starts and report the disagreement.

    The starts are drawn uniformly in a box reaching twice as far out as
    the farthest knot (at least [-2, 2]), so every piece can start the
    loop, and one walk runs all their patterns.  The spread is the sum
    over coordinates of the spread of the ends' stationary inputs (and
    so of the restarts'), an upper bound on the pairwise 1-norm distance
    between any two restarts.  Small values support uniqueness; g < 1
    already proves it, and the probe only cross-checks it.
    """
    if restarts < 2:
        raise ValueError("need at least two restarts")
    if rng is None:
        rng = np.random.default_rng(0)
    w = _load(plant, ctrl, w)
    radius = 2.0 * max(1.0, float(np.max(np.abs(plant.pair.knots))))
    start = plant.pair.piece_of(rng.uniform(-radius, radius,
                                            size=(restarts, plant.n)))
    u, _, solves = _pattern_loop(plant, ctrl, w, start)
    return UniquenessProbe(float(np.sum(u.max(axis=0) - u.min(axis=0))),
                           solves)
