"""Independent reference implementations used to cross-check the
library.  Everything here deliberately avoids the code paths under
test: eigenvalues instead of the solve-based M-matrix test, a
semismooth Newton solver instead of the contraction iteration, matrix
exponentials instead of Runge-Kutta, scipy's LP solver instead of the
in-repo simplex, quadrature instead of closed-form integrals, and
per-coordinate ``np.interp`` instead of the stacked sector tables.
"""

import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.optimize


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
