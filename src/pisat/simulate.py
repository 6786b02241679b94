"""Fixed-step simulation of the closed loop, trajectory costs, and the
Lyapunov decrease monitor.

Integration uses the classic fourth-order Runge-Kutta scheme on a fixed
grid, stepping the stacked state [x, z]; the disturbance is sampled at
every stage time in one call before the loop (time-varying signals are
interpolated linearly).  The sector's f is affine on each piece of its
piece table (the identity is one piece), so while every input stays on
one piece (a saturation pattern) the closed loop is the affine ODE
y' = y M + g + [w, 0], and one RK4 step is the affine recurrence
y_{k+1} = y_k P + f_k; M at slope 1 gives the dt warning its spectrum.
The RK4 step is written once (``_rk4``): a staged step runs it on the
state, and a pattern's map is the same step run on a basis.
A pattern's map is built only after the pattern has held through
max(1, n // 5) consecutive staged steps (a build costs O(n^3), a staged
step O(n^2)).  While it is live the loop scans ahead: one product gives
the forcing of the next L steps, a prefix scan with the powers P, P^2,
P^4, .. writes their states into the trajectory (Blelloch, "Prefix sums
and their applications", 1990), and one more product all their stage
inputs.  The loop commits the steps before the first whose stage input
leaves its piece or whose state fails the blow-up test, and takes that
step staged, at its four stages; later steps rewrite the rows past it.
L follows the rule at ``_SCAN_FIRST``.  The partial last step is always
staged.  In exact arithmetic all ways are the same RK4 step, kinks
included; in floating point they agree to rounding.

The maps, the staged steps and the dt bound share one description of the
loop, y' = y M0 + f(u) B1 + [w, 0] with u = y L (``_loop``): a pattern's
M is M0 + (L d) B1 and the bound's M0 + L B1 (``_pattern_matrix``), a
staged stage is two products, y [M0 | L] and f(u) B1, and a map's stage
two, its basis times M and times L.  One call integrates one closed
loop from one start.  Costs are time averages computed with trapezoidal
quadrature on the recorded grid.  The monitor evaluates a
piecewise-quadratic storage function in closed form along a trajectory
together with its analytic derivative, and flags any step where the
stored value increases beyond tolerance.
"""

from __future__ import annotations

import functools
import math
import re
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import matrixlab, model, sector
from .errors import (CertificateFailure, DimensionMismatch, NonFiniteState,
                     ParseError, UnsupportedVariant)

BLOWUP_LIMIT = 1e12
# the storage monitor flags V(t_{k+1}) > V(t_k) + INCREASE_TOL max(1, V(t_k))
INCREASE_TOL = 1e-9
# integrate records every step; its arrays (states, load, inputs) peak
# at about 66 bytes per agent and step (measured at n = 10), so a run
# within this cap stays below 1 GB
MAX_AGENT_STEPS = 12_500_000
# classic RK4 keeps the whole negative real axis stable up to ~2.785/|eig|;
# warn a little earlier
_RK4_STABILITY = 2.5


class StepCounts(NamedTuple):
    """How the RK4 steps of a run were taken.

    ``affine`` steps advanced by a saturation pattern's map, ``staged``
    steps evaluated the vector field four times, ``patterns`` counts the
    maps built, and ``blocks`` the scans that committed affine steps.
    """

    affine: int
    staged: int
    patterns: int
    blocks: int


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded closed-loop run: states, inputs, and saturated inputs.

    ``z`` is all zeros for static feedback.  Rows index time, columns
    agents.  ``counts`` says how ``integrate`` took the steps (None for
    a trajectory read back from CSV).
    """

    t: np.ndarray
    x: np.ndarray
    z: np.ndarray
    u: np.ndarray
    v: np.ndarray
    counts: StepCounts | None = None

    @property
    def n(self) -> int:
        return self.x.shape[1]


@functools.lru_cache(maxsize=1)
def _spectral_dt(m: bytes, size: int) -> float:
    # keyed on the loop matrix itself: certify's storage probe cuts its dt
    # to this bound, and integrate's warning then checks that dt against
    # the same matrix, which the norm test of stable_dt cannot clear
    m = np.frombuffer(m).reshape(size, size)
    rho = float(np.max(np.abs(np.linalg.eigvals(m))))
    return _RK4_STABILITY / rho if rho > 0.0 else math.inf


def stable_dt(plant: model.PlantModel, ctrl: model.ControllerSpec,
              dt: float) -> float:
    """``dt``, cut to the step-size bound from the spectrum of the
    linear-regime loop matrix where it exceeds that bound (dt = inf
    gives the bound).

    The 1- and inf-norms of the loop matrix bound its spectral radius,
    so a dt within their bound is returned without the eigenvalues,
    which cost O(n^3) (11 ms at n = 100).
    """
    m = _pattern_matrix(_loop(plant, ctrl), 1.0)
    norm = min(np.abs(m).sum(axis=0).max(), np.abs(m).sum(axis=1).max())
    if dt * norm <= _RK4_STABILITY:
        return dt
    return min(dt, _spectral_dt(m.tobytes(), m.shape[0]))


def _as_signal(w, n: int) -> model.DisturbanceSignal:
    # a scalar load is the same on every agent
    if not isinstance(w, model.DisturbanceSignal):
        w = np.asarray(w, dtype=float)
        w = model.DisturbanceSignal.constant(np.full(n, w) if w.ndim == 0
                                             else w)
    if w.n != n:
        raise DimensionMismatch("disturbance width disagrees with plant")
    return w


def _start(v, n: int) -> np.ndarray:
    v = np.array(v, dtype=float).reshape(-1)
    if v.size != n:
        raise DimensionMismatch("initial state width disagrees with plant")
    return v


def _loop(plant: model.PlantModel, ctrl: model.ControllerSpec):
    """K = [M0 | L], B1 of the loop y' = y M0 + f(u) B1 + [w, 0], u = y L:
    M0 is M at slope 0; where f = c + d u, M = M0 + (L d) B1, g = c B1."""
    n = plant.n
    cols = np.arange(n)
    lmap = -np.vstack((ctrl.kx.T, ctrl.kz.T))
    kmat = np.hstack((np.zeros((2 * n, 2 * n)), lmap))
    kmat[cols, cols] = -plant.a
    kmat[:n, n:2 * n] = ctrl.e.T
    kmat[:, n:2 * n] += lmap @ ctrl.s_aw
    return kmat, np.hstack((plant.b.T, -ctrl.s_aw))


def _pattern_matrix(loop, d) -> np.ndarray:
    """M = M0 + (L d) B1, the loop matrix where f has slope d."""
    kmat, b1 = loop
    n2 = b1.shape[1]
    return kmat[:, :n2] + (kmat[:, n2:] * d) @ b1


# stage j of an RK4 step from t_k takes the load at t_k, t_k + h/2,
# t_k + h/2 and t_k + h: row _STAGE_LOAD[j] of the step's [w0, wm, w1]
_STAGE_LOAD = (0, 1, 1, 2)


def _rk4(y, h: float, deriv):
    """One classic RK4 step of size h from y; ``deriv(y, j)`` is the
    derivative at stage j = 0..3."""
    # k1 + 2 k2 + 2 k3 + k4, summed in that order as the stages come, so
    # that a map's build holds one stage's derivative at a time, not four
    k = deriv(y, 0)
    acc = k
    k = deriv(y + 0.5 * h * k, 1)
    acc = acc + 2.0 * k
    k = deriv(y + 0.5 * h * k, 2)
    acc += 2.0 * k
    k = deriv(y + h * k, 3)
    acc += k
    return y + (h / 6.0) * acc


def _affine_step(loop, pair, piece: np.ndarray, h: float, w_const):
    """One RK4 step of size h while every input stays on ``piece``.

    ``loop`` is ``_loop``'s (K, B1), ``piece`` a row of the pair's
    piece table per input.  There f(u) = c + d u, so the loop is the
    affine ODE y' = y M + g + [w, 0] with u = y L, and the step and its
    stage inputs are linear in (y, 1, w0, wm, w1).  The map is ``_rk4``
    run once on a basis: rows 0..2n-1 are the state directions, row 2n
    the constant, which carries g and a constant load ``w_const``, and
    for a sampled load 3n more rows carry w0, wm and w1.  A stage takes
    the basis's stage state times M (its derivative) and times L (its
    input).  Returns (mat, tw, bias, lo, hi): ``y @ mat + [w0, wm, w1]
    @ tw + bias`` is [y_next | u1 | u2 | u3 | u4], and the step is RK4's
    (up to rounding) when lo <= u_j <= hi for all four stages; tw is
    None for a constant load.
    """
    kmat, b1 = loop
    n, cols = pair.n, np.arange(pair.n)
    n2 = 2 * n
    rows = n2 + 1 if w_const is not None else 5 * n + 1
    m, lmap = _pattern_matrix(loop, pair.slope[piece, cols]), kmat[:, n2:]
    g = pair.icpt[piece, cols] @ b1
    if w_const is not None:
        g[:n] += w_const
    # per basis row: its part of [y_next | u1 | u2 | u3 | u4]
    out = np.zeros((rows, 6 * n))

    def deriv(yb, j):
        u = out[:, (2 + j) * n:(3 + j) * n]
        if j:
            dy = yb @ m
            np.matmul(yb, lmap, out=u)
        else:
            # stage 0 runs on the basis itself: M and L on the state rows
            dy = np.zeros((rows, n2))
            dy[:n2], u[:n2] = m, lmap
        dy[n2] += g
        if w_const is None:
            dy[n2 + 1 + n * _STAGE_LOAD[j] + cols, cols] += 1.0
        return dy

    out[:, :n2] = _rk4(np.eye(rows, n2), h, deriv)
    return (out[:n2], None if w_const is not None else out[n2 + 1:],
            out[n2], np.tile(pair.lo[piece, cols], 4),
            np.tile(pair.hi[piece, cols], 4))


# maps kept per call; one is 2n x 6n doubles, about 1 MB at n = 100, and
# the powers of P its scans needed (P^2 alone at n = 100).  With one
# slot no certify probe of the bundled configs or of gen.py's networks
# built another map, but the cold snap's daily swing brings a loop back
# to its earlier patterns: its simulate built 17 maps for 12 (and staged
# 50 steps for 45), its 3-controller compare 37 for 22 (108 for 93)
_MAPS_KEPT = 3
# a call's first scan takes L = min(_SCAN_FIRST, _scan_cap(n)) steps, a
# scan that holds throughout doubles the next L, up to _scan_cap(n), one
# that commits some steps and then stops sets L back to the first, and
# one that fails at its first step keeps L, so the loop scans again after
# that one staged step.  A scan of L steps trades L turns of the loop for
# log2(L) products of its L states, O(L n^2 log L) flops, so L n^2 stays
# within 51,200 (256 steps up to n = 14, 32 at n = 40, 4 at n = 100),
# which also bounds its (L, 6n) arrays and its powers of P.  In process,
# first lengths of 8 and 16 ran alike and faster than 4, caps of 128 to
# 1024 alike at n <= 12, 16 to 32 fastest at n = 40, and 4 to 8 at
# n = 100, where scans of one step ran 20% slower than scans of 4
_SCAN_FIRST = 8
_SCAN_WORK = 32 * 40 * 40
_SCAN_STEPS = 256


def _scan_cap(n: int) -> int:
    """Longest scan at width n, a power of two (1: a step per scan)."""
    cap = min(_SCAN_STEPS, _SCAN_WORK // (n * n))
    return 1 << max(0, cap.bit_length() - 1)


class _PatternMaps:
    """The saturation-pattern maps of one ``integrate`` call.

    The loop gets the map of pattern p once p has held (all four stage
    inputs on p) through max(1, n // 5) consecutive staged steps: a
    build costs O(n^3), a staged step O(n^2), and at n = 40 a build
    takes about three staged steps.  The last few maps are kept, so a
    pattern the loop returns to needs no new build; nothing outlives
    the call.  ``live`` is the map of the current pattern, or None.
    Each map carries the powers P, P^2, P^4, .. of its state map P that
    its scans have needed so far, built by squaring.
    """

    def __init__(self, plant, ctrl, dt: float, w_const):
        self.plant, self.dt, self.w_const = plant, dt, w_const
        self.loop = _loop(plant, ctrl)
        self.hold = max(1, plant.n // 5)    # staged steps held before a build
        self.run = None, 0                  # (pattern, staged steps held)
        self.maps = {}
        self.live = None
        self.built = 0
        # the scans' work arrays: forcing outputs and stage inputs
        self.forcing = np.empty((_scan_cap(plant.n), 6 * plant.n))
        self.inputs = np.empty((len(self.forcing), 4 * plant.n))

    def scan(self, block, w, limit: float) -> int:
        """Step the live pattern into block[1:]; return the steps held.

        ``block`` is the view ys[k:k + 1 + L] of the run's trajectory and
        ``w`` the (L, 3n) load of its L steps (a constant load is carried
        by the bias).  Step j is y_{j+1} = y_j P + f_j, f_j the state part
        of its forcing f = w_j tw + bias, so a prefix scan gives the L
        states in log2(L) products with the powers of P, and block[:-1]
        times the map's input columns all 4L stage inputs.  A step holds
        when its stage inputs lie on the assumed pieces and its state
        passes the blow-up test; the rows from the first that does not
        on are written over by the steps that later commit them.
        """
        mat, tw, bias, lo, hi, pows = self.live
        span, n2 = len(w), 2 * self.plant.n
        if tw is None:
            f = bias
        else:
            f = np.matmul(w, tw, out=self.forcing[:span])
            f += bias
        a = block[1:]
        a[:] = f[:, :n2]
        a[0] += block[0] @ pows[0]
        d = 1
        for i in range((span - 1).bit_length()):
            if i == len(pows):
                pows.append(pows[-1] @ pows[-1])
            a[d:] += a[:-d] @ pows[i]
            d <<= 1
        u = np.matmul(block[:-1], mat[:, n2:], out=self.inputs[:span])
        u += f[:, n2:]
        inside = (lo <= u) & (u <= hi)
        # most scans hold throughout: test the block whole first
        if inside.all() and np.abs(a).max() <= limit:
            return span
        ok = inside.all(axis=1) & np.all(np.abs(a) <= limit, axis=1)
        return int(np.argmin(ok))

    def observe(self, us) -> None:
        """Update after a staged step with (4, n) stage inputs ``us``."""
        pieces = self.plant.pair.piece_of(us)
        raw = pieces.tobytes()              # a pattern: four equal rows
        key = raw[:len(raw) // 4] if raw == raw[:len(raw) // 4] * 4 else None
        last, run = self.run
        run = 0 if key is None else run + 1 if key == last else 1
        self.run = key, run
        maps = self.maps
        if key is not None and key not in maps and run >= self.hold:
            if len(maps) == _MAPS_KEPT:
                del maps[next(iter(maps))]
            mat, tw, bias, lo, hi = _affine_step(
                self.loop, self.plant.pair, pieces[0], self.dt, self.w_const)
            maps[key] = (mat, tw, bias[None], lo, hi,
                         [mat[:, :2 * self.plant.n]])
            self.built += 1
        self.live = maps.get(key)


def _stage_kernel(pair: sector.SectorPair, loop):
    """The loop's RK4 stage ``stage(y, j)``, dy = y M0 + f(u) B1 + [w_j, 0]
    with u = y L in two products: y [M0 | L] fills row j of a (4, 3n)
    buffer.  Returns stage, the buffer's u columns (the (4, n) stage
    inputs) and the (4, n) loads w_j, which the caller sets once a step."""
    kmat, b1 = loop
    n, n2, f = pair.n, 2 * pair.n, sector.bind_f(pair)
    buf = np.empty((4, 3 * n))
    loads = np.empty((4, n))

    def stage(y, j):
        yk = np.matmul(y, kmat, out=buf[j])
        dy = yk[:n2] + f(yk[n2:]) @ b1
        dy[:n] += loads[j]
        return dy

    return stage, buf[:, n2:], loads


def integrate(plant: model.PlantModel, ctrl: model.ControllerSpec, w, x_init,
              z_init, t_span: tuple[float, float], dt: float) -> Trajectory:
    """Integrate the closed loop over ``t_span`` with fixed step ``dt``.

    ``w`` may be a DisturbanceSignal, a constant vector or a scalar, the
    same on every agent.  ``z_init`` must be None for static feedback,
    whose integral state is then held at zero.  Every step is recorded,
    so a run of more than ``MAX_AGENT_STEPS`` steps times agents raises
    ValueError before anything is allocated.
    A rough spectral pre-check warns when dt looks too coarse for the
    linear regime; a state that is not finite or exceeds
    ``BLOWUP_LIMIT`` times max(1, largest initial |state|) raises
    NonFiniteState: the test measures growth, not size.

    Each step is classic RK4 (``_rk4``), taken one of two ways.  While
    every input stays on one piece of the sector (its saturation
    pattern) the loop is affine, and a step is one affine map, the RK4
    step run once on a basis (see ``_affine_step``).  A pattern's map is
    built once the pattern has held through max(1, n // 5) consecutive
    staged steps.  While it is live the loop scans ahead (see
    ``_PatternMaps.scan``): one product gives the forcing of the next L
    steps, a prefix scan with the powers of the map's P writes their L
    states straight into the trajectory in log2(L) products, and one
    more product gives all 4L stage inputs.  The loop commits the steps
    before the first that fails, one whose stage input leaves its piece
    or whose state fails the blow-up test, and takes that step staged:
    four stages of two products each (``_stage_kernel``), so a kink is
    stepped as RK4 steps it and a blow-up raises at the step where it
    happens; later steps rewrite the rows past it.  The scan length L
    follows the rule at ``_SCAN_FIRST``.  The partial last step (``h``
    below ``dt``) is always staged.  The two ways agree up to
    rounding, kinks included.  The load may be constant or sampled.  The
    returned ``counts`` say how many steps took each way, how many maps
    were built and how many scans committed steps.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (t1 > t0 and dt > 0.0 and all(map(math.isfinite, (t0, t1, dt)))):
        raise ValueError("need finite t1 > t0 and dt > 0")
    n = plant.n
    horizon = t1 - t0
    if not horizon / dt * n <= MAX_AGENT_STEPS:
        raise ValueError(f"the span holds {horizon / dt:.3g} steps of dt; "
                         f"at n = {n} a run records at most "
                         f"{MAX_AGENT_STEPS // n:,}")
    wsig = _as_signal(w, n)
    if ctrl.n != n:
        raise DimensionMismatch("controller width disagrees with plant")
    if ctrl.is_pi and z_init is None:
        raise DimensionMismatch("PI variants require an initial integral "
                                "state")
    if not ctrl.is_pi and z_init is not None:
        raise DimensionMismatch("static feedback carries no integral state")
    bound = stable_dt(plant, ctrl, dt)
    if bound < dt:
        warnings.warn(f"dt={dt:g} exceeds the linear-regime stability "
                      f"estimate {bound:.3g}; expect inaccuracy or blow-up",
                      stacklevel=2)

    full = int(math.floor(horizon / dt + 1e-9))
    rem = horizon - full * dt
    # a span below one step is that step, however short
    has_partial = rem > 1e-12 * max(dt, 1.0) or full == 0
    steps = full + (1 if has_partial else 0)

    ts = t0 + np.arange(steps + 1) * dt
    ts[full + 1:] = t1
    # the disturbance at the stage times t_k, t_k + h/2 and t_k + h
    hs = np.where(np.arange(steps) < full, dt, rem)
    tk = ts[:steps]
    forcing = wsig(np.stack([tk, tk + 0.5 * hs, tk + hs], axis=1))
    w_flat = forcing.reshape(steps, 3 * n)
    maps = _PatternMaps(plant, ctrl, dt,
                        wsig(t0) if wsig.is_constant else None)
    stage, us, loads = _stage_kernel(plant.pair, maps.loop)

    ys = np.empty((steps + 1, 2 * n))
    ys[0, :n] = _start(x_init, n)
    ys[0, n:] = 0.0 if z_init is None else _start(z_init, n)
    limit = BLOWUP_LIMIT * max(1.0, float(np.abs(ys[0]).max()))
    cap = _scan_cap(n)
    first = length = min(_SCAN_FIRST, cap)
    affine = scans = 0
    k = 0
    y = ys[0]
    while k < steps:
        if maps.live is not None and k < full:
            span = min(length, full - k)
            held = maps.scan(ys[k:k + 1 + span], w_flat[k:k + span], limit)
            if held:
                k += held
                y = ys[k]
                affine += held
                scans += 1
                if held == span:
                    length = min(2 * length, cap)
                    continue
                length = first
        # the staged step, at a kink or without a live map
        np.take(forcing[k], _STAGE_LOAD, axis=0, out=loads)
        y = _rk4(y, float(hs[k]), stage)
        if not np.abs(y).max() <= limit:
            raise NonFiniteState(f"state left +-{limit:g} near "
                                 f"t={ts[k + 1]:.6g} (step {k + 1})")
        if k + 1 < full:
            maps.observe(us)
        k += 1
        ys[k] = y
    xs, zs = ys[:, :n], ys[:, n:]
    u = ctrl.feedback(xs, zs)
    return Trajectory(ts, xs, zs, u, sector.eval_f(plant.pair, u),
                      StepCounts(affine, steps - affine, maps.built, scans))


@dataclass(frozen=True, eq=False)
class CostReport:
    """Time-averaged trajectory costs over the recorded horizon."""

    j1: float
    jinf: float
    j2: float
    horizon: float


def evaluate_costs(traj: Trajectory, l_diag) -> CostReport:
    """Evaluate the three running costs on a recorded trajectory.

    j1 and jinf average the 1-norm and the max-norm of the state; j2
    averages x^T diag(l) x plus the squared saturated input.
    """
    l = np.atleast_1d(np.asarray(l_diag, dtype=float))
    if l.size != traj.n:
        raise DimensionMismatch("state weight width disagrees with trajectory")
    t = traj.t
    horizon = float(t[-1] - t[0])
    if horizon <= 0.0 or t.size < 2:
        raise ValueError("trajectory must span a positive horizon")

    def avg(f: np.ndarray) -> float:
        dt = np.diff(t)
        return float(np.sum(0.5 * dt * (f[1:] + f[:-1])) / horizon)

    mag = np.abs(traj.x)
    j1 = avg(np.sum(mag, axis=1))
    jinf = avg(np.max(mag, axis=1))
    j2 = avg(np.sum(l * traj.x ** 2, axis=1) + np.sum(traj.v ** 2, axis=1))
    return CostReport(j1, jinf, j2, horizon)


@dataclass(frozen=True, eq=False)
class LyapunovParameters:
    """Certified weights of the storage function.

    q makes diag(q) P B + (P B)^T diag(q) positive definite (alpha is
    half its smallest eigenvalue), beta_min is the weakest anti-windup
    damping, gain_norm the spectral norm of diag(q) P B, and epsilon the
    chosen mixing weight, strictly below epsilon_bound.
    """

    q: np.ndarray
    alpha: float
    beta_min: float
    gain_norm: float
    epsilon_bound: float
    epsilon: float


def lyapunov_parameters(plant: model.PlantModel,
                        ctrl: model.ControllerSpec) -> LyapunovParameters:
    """Derive the storage-function weights for the decentralized loop.

    q = v / w with P B w = 1 and v = d / (a p), d the plant's gain
    scaling.  The admissible range for epsilon keeps a 2x2 comparison
    form negative definite; epsilon is half the bound (or 1 when
    unbounded).  The storage function needs a_i p_i > r_i for every
    agent, so a loop without that margin raises CertificateFailure here,
    before any trajectory is integrated for it.
    """
    if ctrl.variant != model.VARIANT_DECENTRALIZED:
        raise UnsupportedVariant("storage function covers the decentralized "
                                 "variant only")
    if np.any(plant.a * ctrl.p / ctrl.r - 1.0 <= 0.0):
        raise CertificateFailure("storage function needs a_i p_i > r_i "
                                 "for every agent")
    pb = ctrl.p[:, None] * plant.b
    q = matrixlab.diagonal_lyapunov_scaling(
        pb, plant.gain_scaling / (plant.a * ctrl.p))
    qpb = q[:, None] * pb
    alpha = 0.5 * float(np.min(np.linalg.eigvalsh(qpb + qpb.T)))
    beta_min = float(np.min(q * ctrl.r * ctrl.s))
    gain_norm = float(np.linalg.norm(qpb, 2))
    quad = gain_norm ** 2 - 4.0 * alpha * beta_min
    bound = math.inf if quad <= 0.0 else 4.0 * alpha * beta_min / quad
    epsilon = 0.5 * bound if math.isfinite(bound) else 1.0
    return LyapunovParameters(q, alpha, beta_min, gain_norm, bound, epsilon)


@dataclass(frozen=True, eq=False)
class LyapunovTrace:
    """Storage function along a trajectory with decrease diagnostics,
    one entry per row of the trajectory."""

    value: np.ndarray
    vdot_analytic: np.ndarray
    increase_steps: np.ndarray
    passed: bool


def lyapunov_trace(plant: model.PlantModel, ctrl: model.ControllerSpec, eq,
                   traj: Trajectory,
                   params: LyapunovParameters) -> LyapunovTrace:
    """Evaluate the storage function along a recorded trajectory.

    Valid for the decentralized variant under the constant disturbance
    used to compute ``eq``, with the weights ``params`` that
    :func:`lyapunov_parameters` derived for this plant and controller.
    The value is integrated segmentwise in closed form, and its
    derivative is the analytic one.
    Steps with V(t_{k+1}) > V(t_k) + INCREASE_TOL max(1, V(t_k)) are
    flagged.
    """
    eps = params.epsilon
    q = params.q
    coeff_z = q * (plant.a * ctrl.p / ctrl.r - 1.0)
    pair_t = sector.shift_pair(plant.pair, eq.u0)
    z_t = -ctrl.r * (traj.z - eq.z0)
    u_t = traj.u - eq.u0

    terms = np.stack([coeff_z * (sector.integral_from_zero(pair_t, z_t)
                                 + 0.5 * eps * z_t ** 2),
                      q * (sector.integral_from_zero(pair_t, u_t)
                           + 0.5 * eps * u_t ** 2)], axis=-1)
    # a running sum, agent by agent and z term first, so the rounding of
    # the value does not depend on numpy's pairwise summation
    value = np.cumsum(terms.reshape(traj.t.size, -1), axis=1)[:, -1]

    fz = sector.eval_f(pair_t, z_t)
    fu = sector.eval_f(pair_t, u_t)
    hu = u_t - fu
    gz = fz + eps * z_t
    gu = fu + eps * u_t
    d_t = q * (plant.a - ctrl.r / ctrl.p)
    vdot = -(np.sum((gz - gu) * d_t * (z_t - u_t), axis=1)
             + np.sum(gz * (d_t * ctrl.p * ctrl.s) * hu, axis=1)
             + np.sum(gu * (q * ctrl.r * ctrl.s) * hu, axis=1)
             + np.sum(gu * (q * ctrl.p) * (fu @ plant.b.T), axis=1))

    slack = INCREASE_TOL * np.maximum(1.0, value[:-1])
    bad = np.nonzero(value[1:] > value[:-1] + slack)[0]
    return LyapunovTrace(value, vdot, bad, bad.size == 0)


# write_trajectory_csv turns this many rows at a time into text, so that
# its arrays stay within a few hundred kB whatever the run's length
CSV_CHUNK_ROWS = 200

# Shortest round-trip digits on whole arrays (as in Ryu: Adams, PLDI
# 2018).  ``repr`` of a double is its shortest round-trip decimal, written
# positionally for 1e-4 <= |x| < 1e16.  For such an x take
# k = 16 - floor(log10 |x|) in 1..20: y = |x| 10^k lies in
# [1e16, 1e17) and is the exact sum h + l of an integer and |l| <= 1/2,
# by Dekker's product (Numer. Math. 1971; 10^k is an exact double).
# Rounding y to the nearest multiple of 100, 10 and 1 gives the 15-, 16-
# and 17-digit candidates, each decided by the sign of
# (remainder - s/2) + l, which the rounded sum keeps.  repr's digits are
# the shortest candidate nearer y than half an ulp of x times 10^k (a
# power of two's lower neighbour lies nearer, but the 67 in range are
# exact decimals that this rule writes as repr does).  A tie, a distance
# within _TEXT_MARGIN of that bound (the distances carry rounding errors
# below 1e-14), and every cell off the range (zeros, subnormals, inf,
# nan, the exponent forms) take repr.
_TEXT_MARGIN = 1e-6
_POW10 = 10.0 ** np.arange(21)
_IPOW10 = 10 ** np.arange(18, dtype=np.int64)


def _split(a):
    # Veltkamp's split: a = hi + lo, each half with at most 26 bits
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _scaled(x, k):
    """hi, lo with hi + lo = x 10^k exactly (Dekker's product)."""
    hi = x * _POW10[k]
    xh, xl = _split(x)
    ph, pl = _POW10_HI[k], _POW10_LO[k]
    return hi, ((xh * ph - hi) + xh * pl + xl * ph) + xl * pl


def _shortest_digits(x):
    """The digits n and the shift k that write repr's digits of each x
    in [1e-4, 1e16) as n 10^-k, and a mask of the cells that this
    decides."""
    k = 16 - np.floor(np.log10(x)).astype(np.int64)
    np.clip(k, 1, 20, out=k)
    hi, lo = _scaled(x, k)
    # y = h + l with h an integer and |l| <= 1/2, both exact
    lo_int = np.rint(lo)
    frac = lo - lo_int
    h = hi.astype(np.int64) + lo_int.astype(np.int64)
    bound = np.ldexp(_POW10[k], np.frexp(x)[1] - 54)  # ulp(x) 10^k / 2
    slack = bound - np.abs(frac)
    # a shorter candidate within the bound replaces a longer one; an
    # unsure length leaves the cell undecided unless a shorter one holds
    digits = h
    done = slack > _TEXT_MARGIN
    unsure = (np.abs(slack) <= _TEXT_MARGIN) | (np.abs(frac) == 0.5)
    for s in (10, 100):                   # 16, then 15 digits
        q = h // s
        rem = (h - q * s).astype(float)
        side = (rem - 0.5 * s) + frac     # the sign of y / s - q - 1/2
        up = side > 0
        # the nearer multiple of s lies |s/2 - |side|| from y
        slack = bound - np.abs(0.5 * s - np.abs(side))
        ok = (slack > _TEXT_MARGIN) & (side != 0)
        digits = digits + ok * ((q + up) * s - digits)
        unsure = (unsure | (np.abs(slack) <= _TEXT_MARGIN) | (side == 0)) & ~ok
        done |= ok
    # where log10 rounds across a power of ten, y falls just outside
    # [1e16, 1e17) and every candidate has a digit more or fewer: the
    # bound, the shortest-first choice and the text's frame still hold
    return digits, k, done & ~unsure


def _word(*chars: int) -> np.uint32:
    return np.array(chars + (0,) * (4 - len(chars)), np.uint8).view(
        np.uint32)[0]


def _digit_words() -> np.ndarray:
    """Words of the 4-digit groups g = 0..9999: at g all four digits, at
    g + _LEADING NUL for the zeros before the first nonzero digit, at
    g + _TRAILING NUL for the zeros after the last."""
    g = np.arange(10_000, dtype=np.uint16)
    place = np.array([[1000], [100], [10], [1]], np.uint16)
    text = (g // place % 10 + 48).astype(np.uint8)
    before = g < place
    after = g % (10 * place) == 0
    rows = np.concatenate([text, text * ~before, text * ~after], axis=1)
    return np.ascontiguousarray(rows.T).view(np.uint32).ravel()


_LEADING, _TRAILING = 10_000, 20_000
_DIGIT_WORDS = _digit_words()
# the units and the tenths digit of a zero integer or fraction
_ZERO_UNITS, _ZERO_TENTHS = _word(0, 0, 0, 48), _word(48)
_MINUS, _DOT, _COMMA, _NEWLINE = (_word(c) for c in b"-.,\n")


# A cell's text is g + 8 uint32 words, whose NUL bytes the writer drops:
# [sign][g integer groups][dot][5 fraction groups][separator], a group
# being 4 decimal digits, so that every cell of a chunk has one frame.  g
# is 1 to 4, the fewest groups that hold the chunk's largest integer
# part.  The integer's leading and the fraction's trailing zeros are NUL,
# all but the units and the tenths digit.
def _cell_text(cells, todo, buf):
    """Write the repr text of each cell of ``cells`` that ``todo`` marks
    into a view of ``buf`` with g + 8 words per cell, all but the
    separator word, and return that view (cells' shape by g + 8)."""
    x = cells[todo]
    mag = np.abs(x)
    fast = (mag >= 1e-4) & (mag < 1e16)
    # 1.5 stands in for the cells that take repr
    digits, k, ok = _shortest_digits(np.where(fast, mag, 1.5))
    scale = _IPOW10[np.minimum(k, 17)]
    whole = digits // scale
    frac = digits - whole * scale             # the k digits after the point
    # the fraction's 20 places: 12 in ahead, 8 in behind
    cut = _IPOW10[np.maximum(k - 12, 0)]
    ahead = frac // cut
    behind = (frac - ahead * cut) * _IPOW10[np.minimum(20 - k, 7)] * (k > 12)
    ahead *= _IPOW10[np.maximum(12 - k, 0)]

    g = 1 + int(np.count_nonzero(whole.max() >= _IPOW10[4:16:4]))
    words = buf[:cells.size * (g + 8)].reshape(*cells.shape, g + 8)

    def put(j, w):
        words[..., j][todo] = w

    put(0, np.signbit(x) * _MINUS)
    # the integer's groups from the units up, each blank before its first
    # nonzero digit when all above it are zero
    v = whole
    for j in range(g, 0, -1):
        q = v // 10_000
        group = _DIGIT_WORDS[v - q * 10_000 + _LEADING * (q == 0)]
        if j == g:
            group |= (whole == 0) * _ZERO_UNITS
        put(j, group)
        v = q
    put(g + 1, _DOT)
    # the fraction's groups from its last place back, each blank after its
    # last nonzero digit when all below it are zero
    trail = _TRAILING
    for v, last, first in ((behind, 6, 5), (ahead, 4, 2)):
        for j in range(last, first - 1, -1):
            q = v // 10_000
            r = v - q * 10_000
            group = _DIGIT_WORDS[r + trail]
            if j == 2:
                group |= (frac == 0) * _ZERO_TENTHS
            put(g + j, group)
            trail = trail * (r == 0)
            v = q

    slow = np.flatnonzero(~(fast & ok))
    if slow.size:
        # repr's text, at most 24 characters, fills the g + 7 >= 8 words
        # before the separator
        text = np.array([repr(c) for c in x[slow].tolist()],
                        dtype=f"S{4 * (g + 7)}")
        at = np.flatnonzero(todo)[slow]
        words.reshape(-1, g + 8)[at, :-1] = text.view(np.uint32).reshape(
            -1, g + 7)
    return words


def _csv_header(n: int) -> str:
    return "t," + ",".join(f"{p}{i + 1}" for p in "xzuv" for i in range(n))


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write the trajectory as CSV with full double precision.

    Header: t,x1..xn,z1..zn,u1..un,v1..vn.  For static feedback the z
    columns are zeros.  Every cell is the text ``repr`` gives its float.
    """
    n = traj.n
    parts = (traj.t[:, None], traj.x, traj.z, traj.u, traj.v)
    rows = traj.t.size
    # room for a chunk's words at the widest frame, 4 + 8 words a cell
    buf = np.empty(min(rows, CSV_CHUNK_ROWS) * (1 + 4 * n) * 12, np.uint32)
    keep = np.empty(buf.size * 4, bool)
    with open(path, "wb") as fh:
        fh.write(_csv_header(n).encode("ascii") + b"\n")
        for start in range(0, rows, CSV_CHUNK_ROWS):
            chunk = np.hstack([p[start:start + CSV_CHUNK_ROWS]
                               for p in parts], dtype=float)
            u, v = chunk[:, 1 + 2 * n:1 + 3 * n], chunk[:, 1 + 3 * n:]
            # a v cell equal to its u cell bit for bit takes the u text
            same = u.view(np.int64) == v.view(np.int64)
            todo = np.ones(chunk.shape, bool)
            todo[:, 1 + 3 * n:] = ~same
            words = _cell_text(chunk, todo, buf)
            cell = words.view((np.void, 4 * words.shape[-1]))[..., 0]
            np.copyto(cell[:, 1 + 3 * n:], cell[:, 1 + 2 * n:1 + 3 * n],
                      where=same)
            words[..., -1] = _COMMA
            words[:, -1, -1] = _NEWLINE
            text = words.view(np.uint8).ravel()
            fh.write(text[np.not_equal(text, 0, out=keep[:text.size])])


def read_trajectory_csv(path) -> Trajectory:
    """Parse a trajectory CSV produced by :func:`write_trajectory_csv`."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: empty file")
    # a header of n >= 1 agents holds 4n commas
    n = max(1, lines[0].count(",") // 4)
    if lines[0] != _csv_header(n):
        raise ParseError(f"{path}: unexpected header")
    if len(lines) == 1:
        raise ParseError(f"{path}: no data rows")
    for row, ln in enumerate(lines[1:], 1):
        if ln.count(",") != 4 * n:
            raise ParseError(f"{path}: row {row} holds {ln.count(',') + 1} "
                             f"cells, the header {1 + 4 * n}")
    try:
        data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    except ValueError as exc:
        # numpy counts the data rows from 0, the messages above from 1
        msg = re.sub(r"at row (\d+)", lambda m: f"at row {int(m[1]) + 1}",
                     str(exc))
        raise ParseError(f"{path}: {msg}") from exc
    t = data[:, 0]
    x = data[:, 1:n + 1]
    z = data[:, n + 1:2 * n + 1]
    u = data[:, 2 * n + 1:3 * n + 1]
    v = data[:, 3 * n + 1:]
    return Trajectory(t, x, z, u, v)
