"""Independent reference implementations used to cross-check the
library.  Everything here deliberately avoids the code paths under
test: eigenvalues instead of the solve-based M-matrix test, a
semismooth Newton solver instead of the contraction iteration, matrix
exponentials instead of Runge-Kutta, scipy's LP solver and a grid
search instead of the in-repo simplex, quadrature instead of
closed-form integrals, and per-coordinate ``np.interp`` instead of the
stacked sector tables.  ``simplex_loop`` with ``allocation_lp``,
``closed_loop_derivative_branches``, ``integrate_loop`` and
``iterate_plain`` are the exceptions: they are the earlier forms of the
library's simplex, RK4 loop and fixed-point iteration, kept to pin the
vectorized code to the same arithmetic, the pattern loop to
the same fixed point and the bounded simplex to the same optimum as the
two-phase epigraph solve it replaced.  ``affine_rk4_closed_form`` is
the hand expansion of one RK4 step on a saturation pattern that the
library's maps replaced by RK4 run on a basis.  The error-coordinate
helpers, the comparison CSV reader, ``eval_h``, ``control_input``,
``pair_components``, ``sector_audit``, the scenario writer
``save_scenario`` and ``DimensionTooLarge`` are test-only tools with no
library caller.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.optimize

from pisat import heating, model, sector, simulate
from pisat.errors import (DimensionMismatch, MaxIterationsExceeded,
                          ParseError, PisatError, SolverFailure,
                          UnsupportedVariant)


class DimensionTooLarge(PisatError):
    """Brute-force enumeration is restricted to small dimensions."""


def eval_h(pair, u) -> np.ndarray:
    """Apply the complement h(u) = u - f(u) along the last axis."""
    u = np.asarray(u, dtype=float)
    return u - sector.eval_f(pair, u)


def control_input(ctrl, x, z=None) -> np.ndarray:
    """Evaluate the feedback law at the given state (broadcasts).

    PI variants need the integral state z; static feedback takes none.
    """
    if ctrl.is_pi and z is None:
        raise DimensionMismatch("PI variants require the integral state z")
    if not ctrl.is_pi and z is not None:
        raise DimensionMismatch("static feedback carries no integral state")
    x = np.asarray(x, dtype=float)
    z = np.zeros_like(x) if z is None else np.asarray(z, dtype=float)
    return ctrl.feedback(x, z)


def is_m_matrix_eig(m) -> bool:
    """M-matrix test via the spectrum: Z-pattern and Re(eig) > 0."""
    m = np.asarray(m, dtype=float)
    off = m - np.diag(np.diag(m))
    if np.any(off > 1e-14):
        return False
    try:
        eig = np.linalg.eigvals(m)
    except np.linalg.LinAlgError:
        return False
    return bool(np.all(eig.real > 1e-12))


def equilibrium_newton(a, b, p, r, s, w, tol=1e-12, max_iter=200):
    """Solve the stationary input equation for the saturation pair.

    Semismooth Newton with damping on
    g(u) = (u - sat(u)) + diag(1/(s a)) (B sat(u) + w).
    Returns (x0, z0, u0).  Independent of the contraction construction.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    p = np.asarray(p, dtype=float)
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    w = np.asarray(w, dtype=float)
    n = a.size
    inv_sa = 1.0 / (s * a)

    def g(u):
        f = np.clip(u, -1.0, 1.0)
        return (u - f) + inv_sa * (b @ f + w)

    u = -inv_sa * w
    gu = g(u)
    for _ in range(max_iter):
        if np.max(np.abs(gu)) <= tol:
            break
        active = (np.abs(u) < 1.0).astype(float)
        jac = np.diag(1.0 - active) + (inv_sa[:, None] * b) * active[None, :]
        step = np.linalg.solve(jac, -gu)
        lam = 1.0
        for _ in range(60):
            trial = u + lam * step
            gt = g(trial)
            if np.max(np.abs(gt)) < np.max(np.abs(gu)):
                u, gu = trial, gt
                break
            lam *= 0.5
        else:
            raise RuntimeError("newton oracle stalled")
    else:
        raise RuntimeError("newton oracle did not converge")
    f = np.clip(u, -1.0, 1.0)
    x0 = (b @ f + w) / a
    z0 = (-p * x0 - u) / r
    return x0, z0, u


def iterate_plain(cmap, zeta0, tol, max_iter=10 ** 6):
    """Plain contraction iteration zeta <- T(zeta), without acceleration.

    Stops once the worst row's 1-norm step is at most tol (1 - g) / g
    and returns (zeta, iterations, last_step), zeta being that last
    step's image, so it lies within tol of the fixed point.
    """
    zeta = np.array(zeta0, dtype=float)
    g = cmap.contraction_bound
    thresh = tol * (1.0 - g) / g
    delta = np.inf
    for it in range(1, max_iter + 1):
        nxt = cmap(zeta)
        delta = float(np.max(np.sum(np.abs(nxt - zeta), axis=-1)))
        zeta = nxt
        if delta <= thresh:
            return zeta, it, delta
    raise MaxIterationsExceeded(
        f"no convergence in {max_iter} iterations, last step {delta:.3e}")


def linear_loop_solution(a, b, p, r, w, x0, z0, t):
    """Exact trajectory of the loop with f = identity (no saturation).

    State [x; z], dynamics [[-A - B P, -B R], [I, 0]] plus constant w,
    solved with the matrix exponential at the requested times.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.size
    m = np.zeros((2 * n, 2 * n))
    m[:n, :n] = -np.diag(a) - b * np.asarray(p, dtype=float)[None, :]
    m[:n, n:] = -b * np.asarray(r, dtype=float)[None, :]
    m[n:, :n] = np.eye(n)
    c = np.concatenate([np.asarray(w, dtype=float), np.zeros(n)])
    y0 = np.concatenate([np.asarray(x0, dtype=float),
                         np.asarray(z0, dtype=float)])
    # affine solution via the augmented exponential trick
    aug = np.zeros((2 * n + 1, 2 * n + 1))
    aug[:2 * n, :2 * n] = m
    aug[:2 * n, -1] = c
    out = np.empty((len(t), 2 * n))
    for i, ti in enumerate(np.asarray(t, dtype=float)):
        phi = scipy.linalg.expm(aug * ti)
        out[i] = phi[:2 * n, :2 * n] @ y0 + phi[:2 * n, -1]
    return out[:, :n], out[:, n:]


def weighted_l1_linprog(gamma, a, b, w):
    """Reference LP solution via scipy's HiGHS backend.

    min sum gamma_i |x_i| over v in [-1, 1]^n with x = A^-1 (B v + w).
    Epigraph variables t bound gamma_i |x_i| from above.
    """
    gamma = np.asarray(gamma, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    w = np.asarray(w, dtype=float)
    n = a.size
    g = (gamma / a)[:, None] * b
    gw = gamma * w / a
    # variables [v, t]; G v - t <= -gw; -G v - t <= gw
    c = np.concatenate([np.zeros(n), np.ones(n)])
    a_ub = np.block([[g, -np.eye(n)], [-g, -np.eye(n)]])
    b_ub = np.concatenate([-gw, gw])
    bounds = [(-1.0, 1.0)] * n + [(0.0, None)] * n
    res = scipy.optimize.linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds,
                                 method="highs")
    if not res.success:
        raise RuntimeError(f"linprog failed: {res.message}")
    v = res.x[:n]
    x = (b @ v + w) / a
    return x, v, float(np.sum(gamma * np.abs(x)))


def pwl_integral_quad(fn, upper, breakpoints=()) -> float:
    """Quadrature reference for the running integral of a scalar map.

    Interior kink locations must be passed via ``breakpoints`` or the
    quadrature loses accuracy.
    """
    lo, hi = min(0.0, upper), max(0.0, upper)
    pts = [b for b in breakpoints if lo < b < hi] or None
    val, _ = scipy.integrate.quad(fn, 0.0, upper, limit=400, points=pts)
    return val


def pwl_eval_interp(components, u):
    """Per-coordinate reference for f along the last axis of ``u``.

    ``np.interp`` between the knots of each component, its extension
    slopes outside them; one coordinate at a time.
    """
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    for i, comp in enumerate(components):
        x = u[..., i]
        k, v = comp.knots, comp.values
        y = np.interp(x, k, v)
        y = np.where(x < k[0], v[0] + comp.slope_left * (x - k[0]), y)
        y = np.where(x > k[-1], v[-1] + comp.slope_right * (x - k[-1]), y)
        out[..., i] = y
    return out


def pair_components(pair) -> tuple[sector.PwlFunction, ...]:
    """The per-coordinate functions of a pair, padding removed."""
    size = 1 + np.count_nonzero(np.diff(pair.knots, axis=0) > 0.0, axis=0)
    return tuple(sector.PwlFunction(pair.knots[:m, i], pair.values[:m, i],
                                    float(pair.slope[0, i]),
                                    float(pair.slope[-1, i]))
                 for i, m in enumerate(size))


@dataclass(frozen=True)
class AuditReport:
    """Sampled slope bounds for f and h plus the f(0) check."""

    f_slope_min: float
    f_slope_max: float
    h_slope_min: float
    h_slope_max: float
    f_zero_error: float
    samples: int
    sample_range: tuple[float, float]
    tolerance: float
    passed: bool


def sector_audit(pair, samples: int,
                 sample_range: tuple[float, float] = (-5.0, 5.0),
                 rng: np.random.Generator | None = None,
                 tolerance: float = 1e-12) -> AuditReport:
    """Randomized conformance check of the sector class.

    Draws ``samples`` point pairs per coordinate inside ``sample_range``,
    measures incremental slopes of f and of h, and checks f(0) = 0.
    Passes iff every observed slope lies in [-tolerance, 1 + tolerance]
    and the f(0) error is negligible.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    if rng is None:
        rng = np.random.default_rng(0)
    lo, hi = float(sample_range[0]), float(sample_range[1])
    if not hi > lo:
        raise ValueError("empty sample range")
    x = rng.uniform(lo, hi, size=(samples, pair.n))
    y = rng.uniform(lo, hi, size=(samples, pair.n))
    keep = np.abs(y - x) > 1e-9 * (hi - lo)
    fx, fy = sector.eval_f(pair, x), sector.eval_f(pair, y)
    du = (y - x)[keep]
    slopes_f = (fy - fx)[keep] / du
    slopes_h = ((y - fy) - (x - fx))[keep] / du

    def _bounds(s: np.ndarray) -> tuple[float, float]:
        if s.size == 0:
            return 0.0, 0.0
        return float(s.min()), float(s.max())

    f_lo, f_hi = _bounds(slopes_f)
    h_lo, h_hi = _bounds(slopes_h)
    scale = max(1.0, float(np.max(np.abs(pair.values))))
    f_zero = float(np.max(np.abs(sector.eval_f(pair, np.zeros(pair.n)))))
    ok = (min(f_lo, h_lo) >= -tolerance and max(f_hi, h_hi) <= 1.0 + tolerance
          and f_zero <= tolerance * scale)
    return AuditReport(f_lo, f_hi, h_lo, h_hi, f_zero, samples, (lo, hi),
                       tolerance, ok)


def brute_force_oracle(gamma, a, b, w, grid: int = 41):
    """Grid search reference for the allocation problem (n <= 4).

    Scans a uniform grid over the input box and refines twice around the
    incumbent, shrinking the span to the previous grid spacing each
    time.  Accuracy is of the order of the final spacing.  Returns
    (x, v, cost) like ``weighted_l1_linprog``.
    """
    gamma = np.asarray(gamma, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    w = np.atleast_1d(np.asarray(w, dtype=float))
    n = a.size
    if n > 4:
        raise DimensionTooLarge("brute force restricted to n <= 4")
    if grid < 3:
        raise ValueError("grid must have at least 3 points per axis")
    center = np.zeros(n)
    half = 1.0
    best_v = center
    best_cost = np.inf
    for _ in range(3):
        axes = [np.linspace(max(-1.0, c - half), min(1.0, c + half), grid)
                for c in center]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        x = (pts @ b.T + w) / a
        costs = np.sum(gamma * np.abs(x), axis=1)
        idx = int(np.argmin(costs))
        best_v = pts[idx]
        best_cost = float(costs[idx])
        spacing = max(float(ax[1] - ax[0]) for ax in axes)
        center = best_v
        half = spacing
    return (b @ best_v + w) / a, best_v, best_cost


_LOOP_EPS = 1e-9
_LOOP_MAX_PIVOTS = 10_000


def _pivot_loop(tab, row, col):
    tab[row] /= tab[row, col]
    for i in range(tab.shape[0]):
        if i != row and tab[i, col] != 0.0:
            tab[i] -= tab[i, col] * tab[row]


def _run_simplex_loop(tab, basis, cost, ncols, pivots_left):
    while True:
        cb = cost[basis]
        reduced = cost[:ncols] - cb @ tab[:, :ncols]
        entering = -1
        for j in range(ncols):
            if reduced[j] < -_LOOP_EPS:
                entering = j
                break
        if entering < 0:
            return pivots_left
        col = tab[:, entering]
        rhs = tab[:, -1]
        best_ratio = np.inf
        leave = -1
        for i in range(tab.shape[0]):
            if col[i] > _LOOP_EPS:
                ratio = rhs[i] / col[i]
                if ratio < best_ratio - _LOOP_EPS or (
                        abs(ratio - best_ratio) <= _LOOP_EPS
                        and (leave < 0 or basis[i] < basis[leave])):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            raise SolverFailure("objective unbounded on the tableau")
        _pivot_loop(tab, leave, entering)
        basis[leave] = entering
        pivots_left -= 1
        if pivots_left <= 0:
            raise SolverFailure("pivot guard exceeded")


def simplex_loop(c, a_eq, b_eq):
    """Row-by-row two-phase simplex with Bland's rule: min c @ y s.t.
    a_eq y = b_eq, y >= 0.

    The library's solver before its pivots and ratio tests were
    vectorized, unchanged but for counting pivots.  Returns (y, pivots),
    pivots summed over phase one, the artificial drive-out and phase two.
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
    budget = _run_simplex_loop(tab, basis, phase1, ncols + m,
                               _LOOP_MAX_PIVOTS)
    if float(phase1[basis] @ tab[:, -1]) > 1e-7 * (1.0 + float(np.max(np.abs(b)))):
        raise SolverFailure("phase one failed to reach feasibility")
    pivots = _LOOP_MAX_PIVOTS - budget

    drop_rows = []
    for i in range(m):
        if basis[i] >= ncols:
            row = tab[i, :ncols]
            j = int(np.argmax(np.abs(row)))
            if abs(row[j]) > _LOOP_EPS:
                _pivot_loop(tab, i, j)
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
    left = _run_simplex_loop(tab, basis, cost, ncols, budget)
    pivots += budget - left

    y = np.zeros(ncols)
    y[basis] = tab[:, -1]
    return y, pivots


def allocation_lp(gm, gw):
    """Standard-form epigraph LP (c, a_eq, b_eq) of min ||gm v + gw||_1
    over -1 <= v <= 1, in the variables y = [v + 1, t, slack1, slack2,
    slack3] >= 0: 3n rows and 5n columns, the library's form before the
    bounded simplex."""
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


def allocation_cost_loop(gm, gw):
    """min ||gm v + gw||_1 over the box by ``simplex_loop`` on the
    epigraph form, evaluated at the recovered input as the library
    evaluates its own."""
    y, _ = simplex_loop(*allocation_lp(gm, gw))
    v = np.clip(y[:gw.size] - 1.0, -1.0, 1.0)
    return float(np.sum(np.abs(gm @ v + gw)))


def closed_loop_derivative_branches(plant, ctrl, x, z, w):
    """The closed-loop vector field written out per variant.

    Returns (dx, dz, u); dz is None for static feedback, whose z is None.
    Decentralized: dz = x + s h(u); coordinating: dz = x + beta sum h(u).
    """
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    if ctrl.variant == model.VARIANT_STATIC:
        u = -(x @ ctrl.k_static.T)
    else:
        u = -ctrl.p * x - ctrl.r * np.asarray(z, dtype=float)
    fu = sector.eval_f(plant.pair, u)
    dx = -plant.a * x + fu @ plant.b.T + w
    if ctrl.variant == model.VARIANT_STATIC:
        return dx, None, u
    hu = u - fu
    if ctrl.variant == model.VARIANT_DECENTRALIZED:
        dz = x + ctrl.s * hu
    else:
        dz = x + ctrl.beta * np.sum(hu, axis=-1, keepdims=True)
    return dx, dz, u


def integrate_loop(plant, ctrl, wsig, x_init, z_init, t_span, dt):
    """RK4 with separate x and z updates and the signal called per stage.

    Same step grid as ``simulate.integrate`` (full steps plus a partial
    last one).  Returns (t, x, z, u, v); z is None for static feedback.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    x = np.array(x_init, dtype=float)
    z = None if z_init is None else np.array(z_init, dtype=float)
    span = t1 - t0
    full = int(math.floor(span / dt + 1e-9))
    rem = span - full * dt
    steps = full + (1 if rem > 1e-12 * max(dt, 1.0) else 0)

    def deriv(xx, zz, ww):
        dx, dz, _ = closed_loop_derivative_branches(plant, ctrl, xx, zz, ww)
        return dx, dz

    def step(zz, h, dz):
        return None if zz is None else zz + h * dz

    ts, xs, zs = [t0], [x], [z]
    for k in range(steps):
        t = t0 + k * dt
        h = dt if k < full else rem
        w0, wm, w1 = wsig(t), wsig(t + 0.5 * h), wsig(t + h)
        k1x, k1z = deriv(x, z, w0)
        k2x, k2z = deriv(x + 0.5 * h * k1x, step(z, 0.5 * h, k1z), wm)
        k3x, k3z = deriv(x + 0.5 * h * k2x, step(z, 0.5 * h, k2z), wm)
        k4x, k4z = deriv(x + h * k3x, step(z, h, k3z), w1)
        x = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        if z is not None:
            z = z + (h / 6.0) * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
        ts.append(t0 + (k + 1) * dt if k + 1 <= full else t1)
        xs.append(x)
        zs.append(z)
    xs = np.array(xs)
    zs = None if z is None else np.array(zs)
    if zs is None:
        us = -(xs @ ctrl.k_static.T)
    else:
        us = -ctrl.p * xs - ctrl.r * zs
    return np.array(ts), xs, zs, us, sector.eval_f(plant.pair, us)


def affine_rk4_closed_form(plant, ctrl, piece, h, w_const):
    """One RK4 step of the loop on one saturation pattern, expanded by hand.

    On ``piece`` (a row of the pair's piece table per input) f(u) =
    c + d u, so with y = [x, z] the loop is y' = y M + g + [w, 0] and
    u = y L, where L = -[kx^T; kz^T], M = [[-diag(a), e^T], [0, 0]] +
    L [diag(d) b^T | (I - diag(d)) s_aw^T] and g = [c b^T | -c s_aw^T].
    With A = h M the step is y P, P = I + A + A^2/2 + A^3/6 + A^4/24,
    plus a forcing b = g + [w, 0] that enters at t_k, t_k + h/2 and
    t_k + h; the stage inputs u_j = Y_j L expand the same way.  Returns
    (mat, tw, bias) in the layout of ``simulate._affine_step``: ``y @ mat
    + [w0, wm, w1] @ tw + bias`` is [y_next | u1 | u2 | u3 | u4], and tw
    is None when the constant load ``w_const`` is folded into g.
    """
    n, cols = plant.n, np.arange(plant.n)
    d, c = plant.pair.slope[piece, cols], plant.pair.icpt[piece, cols]
    lmap = -np.vstack((ctrl.kx.T, ctrl.kz.T))
    m = np.zeros((2 * n, 2 * n))
    m[cols, cols] = -plant.a
    m[:n, n:] = ctrl.e.T
    m += lmap @ np.hstack((d[:, None] * plant.b.T,
                           (1.0 - d)[:, None] * ctrl.s_aw.T))
    g = np.concatenate((c @ plant.b.T, -(c @ ctrl.s_aw.T)))
    if w_const is not None:
        g[:n] += w_const
    eye = np.eye(2 * n)
    a = h * m
    a2 = a @ a
    p = eye + a + a2 @ (0.5 * eye + a / 6.0 + a2 / 24.0)
    al = a @ lmap
    a2l = a @ al
    mat = np.hstack((p, lmap, lmap + 0.5 * al, lmap + 0.5 * al + 0.25 * a2l,
                     lmap + al + 0.5 * a2l + 0.25 * (a @ a2l)))

    def forcing_rows(r, ra, ra2, ra3, rl, ral, ra2l):
        # what rows r of the forcing contribute to [y_next | u1 | .. | u4]
        # when they enter at t_k, at t_k + h/2 and at t_k + h; ra is r A,
        # rl is r L, ral is r A L and so on
        zero = np.zeros_like(rl)
        return (np.hstack((h * (r / 6.0 + ra / 6.0 + ra2 / 12.0 + ra3 / 24.0),
                           zero, 0.5 * h * rl, 0.25 * h * ral,
                           0.25 * h * ra2l)),
                np.hstack((h * (2.0 * r / 3.0 + ra / 3.0 + ra2 / 12.0), zero,
                           zero, 0.5 * h * rl, 0.5 * h * ral + h * rl)),
                np.hstack(((h / 6.0) * r, zero, zero, zero, zero)))

    ga = g @ a
    ga2 = ga @ a
    bias = sum(forcing_rows(g, ga, ga2, ga2 @ a, g @ lmap, ga @ lmap,
                            ga2 @ lmap))
    tw = None if w_const is not None else np.vstack(forcing_rows(
        eye[:n], a[:n], a2[:n], a2[:n] @ a, lmap[:n], al[:n], a2l[:n]))
    return mat, tw, bias


def transform_to_error_coords(plant, ctrl, eq, x, z):
    """Map a state to equilibrium-relative coordinates.

    Returns (z_t, u_t) with z_t = -r (z - z0) and u_t = u - u0, where
    (x0, z0, u0) come from an equilibrium result ``eq``.  Decentralized
    variant only.
    """
    if ctrl.variant != model.VARIANT_DECENTRALIZED:
        raise UnsupportedVariant("error coordinates are defined for the "
                                 "decentralized variant")
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    u = -ctrl.p * x - ctrl.r * z
    return -ctrl.r * (z - eq.z0), u - eq.u0


def error_run(plant, eq, traj):
    """A recorded run of the loop itself, read around the equilibrium
    ``eq``: the error plant (the pair shifted to u0) and the run's
    x - x0, z - z0, u - u0 and the shifted f of u - u0, the form
    ``simulate.lyapunov_trace`` reads."""
    pair = sector.shift_pair(plant.pair, eq.u0)
    u = traj.u - eq.u0
    return (model.PlantModel(plant.a, plant.b, pair),
            simulate.Trajectory(traj.t, traj.x - eq.x0, traj.z - eq.z0, u,
                                sector.eval_f(pair, u)))


def error_coords_derivative(plant, ctrl, eq, z_t, u_t, pair_t=None):
    """Closed-loop vector field in equilibrium-relative coordinates.

    Evaluates the transformed two-block system driven by the recentered
    pair (f~, h~); it agrees with pushing the closed-loop vector field
    through ``transform_to_error_coords``.
    """
    if ctrl.variant != model.VARIANT_DECENTRALIZED:
        raise UnsupportedVariant("error coordinates are defined for the "
                                 "decentralized variant")
    z_t = np.asarray(z_t, dtype=float)
    u_t = np.asarray(u_t, dtype=float)
    if pair_t is None:
        pair_t = sector.shift_pair(plant.pair, eq.u0)
    fu = sector.eval_f(pair_t, u_t)
    hu = u_t - fu
    rp = ctrl.r / ctrl.p
    rs = ctrl.r * ctrl.s
    dz_t = -rp * z_t + rp * u_t - rs * hu
    du_t = (plant.a - rp) * (z_t - u_t) - ctrl.p * (fu @ plant.b.T) - rs * hu
    return dz_t, du_t


def read_comparison_csv(path) -> list[dict]:
    """Parse a comparison.csv written by ``pisat compare`` into row dicts."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = "controller,j1,jinf,j2,final_max_abs_x"
    if not lines or lines[0] != header:
        raise ParseError(f"{path}: unexpected header")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 5:
            raise ParseError(f"{path}: ragged row {ln!r}")
        try:
            rows.append({"controller": parts[0],
                         "j1": float(parts[1]), "jinf": float(parts[2]),
                         "j2": float(parts[3]),
                         "final_max_abs_x": float(parts[4])})
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from exc
    return rows


def scenario_to_json(scn) -> dict:
    """Serialize a scenario to the unit-named JSON form that
    ``heating.scenario_from_json`` reads."""
    ctrl = scn.controller
    cd: dict = {"variant": ctrl.variant}
    if ctrl.is_pi:
        cd["p_per_degc"] = [float(v) for v in ctrl.p]
        cd["r_per_degc_h"] = [float(v) for v in ctrl.r]
        cd["s_degc"] = [float(v) for v in ctrl.s]
        if ctrl.variant == model.VARIANT_COORDINATING:
            cd["beta"] = float(ctrl.beta)
    else:
        cd["k_static"] = [[float(v) for v in row] for row in ctrl.k_static]
    out = {
        "name": scn.name,
        "a_kw_per_degc": [float(v) for v in scn.a],
        "c_kwh_per_degc": [float(v) for v in scn.c],
        "b_heat_kw": [[float(v) for v in row] for row in scn.b_heat],
        "x_c_degc": scn.x_c,
        "controller": cd,
    }
    if isinstance(scn.t_ext, heating.TemperatureSeries):
        out["t_ext"] = {
            "time_h": [float(v) for v in scn.t_ext.time_h],
            "temp_degc": [float(v) for v in scn.t_ext.temp_degc],
        }
    else:
        out["t_ext"] = {"constant_degc": float(scn.t_ext)}
    return out


def save_scenario(scn, path) -> None:
    """Write a scenario file in the layout of the bundled configs."""
    with open(path, "w", encoding="ascii") as fh:
        json.dump(scenario_to_json(scn), fh, indent=2, sort_keys=True)
        fh.write("\n")
