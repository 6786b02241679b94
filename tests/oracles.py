"""Independent reference implementations used to cross-check the
library.  Everything here deliberately avoids the code paths under
test: eigenvalues instead of the solve-based M-matrix test, a
semismooth Newton solver instead of the contraction iteration, matrix
exponentials instead of Runge-Kutta, scipy's LP solver and a grid
search instead of the in-repo simplex, quadrature instead of
closed-form integrals, and per-coordinate ``np.interp`` instead of the
stacked sector tables.  ``simplex_loop`` is the exception: it is the
row-by-row form of the library's simplex, kept to pin the vectorized
solver to the same pivot path.
"""

import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.optimize

from pisat.errors import DimensionTooLarge, SolverFailure


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
