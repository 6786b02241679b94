"""Plant and controller descriptions, disturbance signals and the
tuning rules.

The plant is a network of first-order agents with diagonal decay, an
M-matrix input coupling, and an elementwise sector nonlinearity acting
on the input:

    dx = -diag(a) x + b f(u) + w

All three controller variants share one canonical linear form, with
h(u) = u - f(u) the excess over the sector:

    u = -Kx x - Kz z,    dz = E x + S_aw h(u)

Per-agent PI with local anti-windup is (diag(p), diag(r), I, diag(s));
the same PI loops sharing one anti-windup signal replace S_aw by
beta 11^T; static state feedback is (K, 0, 0, 0), so its integral
state z stays at zero.  ``ControllerSpec`` builds these matrices from
the variant and its gains, and checks both, so the closed loop has one
form for every variant; ``simulate`` steps it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matrixlab, sector
from .errors import DimensionMismatch, NotMMatrix, UnsupportedVariant

VARIANT_DECENTRALIZED = "decentralized"
VARIANT_COORDINATING = "coordinating"
VARIANT_STATIC = "static"

PI_VARIANTS = (VARIANT_DECENTRALIZED, VARIANT_COORDINATING)
ALL_VARIANTS = PI_VARIANTS + (VARIANT_STATIC,)


def _positive_vector(v, name: str, n: int | None = None) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name} must be a vector")
    if n is not None and arr.size != n:
        raise DimensionMismatch(f"{name} has size {arr.size}, expected {n}")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError(f"{name} must be positive and finite")
    return arr


@dataclass(frozen=True, eq=False)
class PlantModel:
    """First-order agent network dx = -diag(a) x + b f(u) + w.

    a is the per-agent decay (positive, units 1/time), b the input
    coupling, and pair the sector nonlinearity applied to the input
    coordinatewise.  The derived gain_scaling is the column dominance
    scaling d of A^-1 b, whose solve proves b an M-matrix; a row scaling
    diag(k) A^-1 b has the scaling d / k, so each certificate reads its
    scaling off d.
    """

    a: np.ndarray
    b: np.ndarray
    pair: sector.SectorPair
    gain_scaling: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        a = _positive_vector(self.a, "a")
        b = matrixlab.as_square_matrix(self.b)
        if b.shape[0] != a.size:
            raise DimensionMismatch("a and b sizes disagree")
        try:
            d = matrixlab.column_dominance_scaling(b / a[:, None])
        except NotMMatrix:
            raise NotMMatrix("input coupling must be an M-matrix") from None
        if self.pair.n != a.size:
            raise DimensionMismatch("sector pair width disagrees with a")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "gain_scaling", d)

    @property
    def n(self) -> int:
        return self.a.size


@dataclass(frozen=True, eq=False)
class ControllerSpec:
    """Gains and variant of the feedback law.

    PI variants use u = -p x - r z with anti-windup feedback into the
    integrator; the coordinating variant replaces the local anti-windup
    channel by a shared one weighted beta.  Static feedback is
    u = -k_static x with no integral state.

    kx, kz, e and s_aw are the matrices of the canonical form
    u = -kx x - kz z, dz = e x + s_aw h(u), derived from the gains.
    """

    variant: str
    p: np.ndarray | None = None
    r: np.ndarray | None = None
    s: np.ndarray | None = None
    beta: float | None = None
    k_static: np.ndarray | None = None
    kx: np.ndarray = field(init=False, repr=False)
    kz: np.ndarray = field(init=False, repr=False)
    e: np.ndarray = field(init=False, repr=False)
    s_aw: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.variant not in ALL_VARIANTS:
            raise UnsupportedVariant(f"unknown variant {self.variant!r}")
        if self.variant in PI_VARIANTS:
            p = _positive_vector(self.p, "p")
            r = _positive_vector(self.r, "r", p.size)
            s = _positive_vector(self.s, "s", p.size)
            object.__setattr__(self, "p", p)
            object.__setattr__(self, "r", r)
            object.__setattr__(self, "s", s)
            n = p.size
            if self.variant == VARIANT_COORDINATING:
                beta = float(self.beta) if self.beta is not None else 1.0 / n
                if not (beta > 0.0 and np.isfinite(beta)):
                    raise ValueError("beta must be positive and finite")
                object.__setattr__(self, "beta", beta)
                s_aw = np.full((n, n), beta)
            else:
                s_aw = np.diag(s)
            canonical = (np.diag(p), np.diag(r), np.eye(n), s_aw)
        else:
            if self.k_static is None:
                raise DimensionMismatch("static feedback requires a gain matrix")
            k = matrixlab.as_square_matrix(self.k_static)
            object.__setattr__(self, "k_static", k)
            # kx is the stored gain itself: x @ kx.T on a contiguous copy of
            # k.T rounds differently
            canonical = (k, *np.zeros((3,) + k.shape))
        for name, m in zip(("kx", "kz", "e", "s_aw"), canonical):
            object.__setattr__(self, name, m)

    @property
    def is_pi(self) -> bool:
        return self.variant in PI_VARIANTS

    @property
    def n(self) -> int:
        return self.kx.shape[0]

    def feedback(self, x, z) -> np.ndarray:
        """The law u = -kx x - kz z; z is zero for static feedback."""
        return -(x @ self.kx.mT) - z @ self.kz.mT


def default_static_gain(plant: PlantModel) -> np.ndarray:
    """Default static gain: the transpose of the input coupling."""
    return plant.b.T.copy()


class DisturbanceSignal:
    """Constant or piecewise-linear-in-time disturbance w(t).

    Sampled signals interpolate linearly between samples and hold the end
    values outside the sampled window.  A signal made by ``shared``
    keeps the table of its last sampled call (see there).
    """

    def __init__(self, times: np.ndarray | None, values: np.ndarray):
        self._times = times
        self._values = values
        # a shared signal's (times, table) of its last call, () before it
        self._last = None

    @classmethod
    def constant(cls, w) -> "DisturbanceSignal":
        w = np.atleast_1d(np.asarray(w, dtype=float))
        if w.ndim != 1 or not np.all(np.isfinite(w)):
            raise DimensionMismatch("constant disturbance must be a finite vector")
        return cls(None, w)

    @classmethod
    def sampled(cls, times, values) -> "DisturbanceSignal":
        t = np.atleast_1d(np.asarray(times, dtype=float))
        v = np.asarray(values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if t.ndim != 1 or v.ndim != 2 or v.shape[0] != t.size or t.size == 0:
            raise DimensionMismatch("times (k,) and values (k, n) expected")
        if t.size > 1 and np.any(np.diff(t) <= 0.0):
            raise ValueError("sample times must be strictly increasing")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("samples must be finite")
        return cls(t, v)

    @property
    def n(self) -> int:
        return self._values.shape[-1] if self._times is not None else self._values.size

    @property
    def is_constant(self) -> bool:
        return self._times is None

    def componentwise_min(self) -> np.ndarray:
        """Per-coordinate minimum over time (the worst sampled value)."""
        if self.is_constant:
            return self._values.copy()
        return self._values.min(axis=0)

    def shared(self) -> "DisturbanceSignal":
        """This signal, keeping the table of its last sampled call.

        A call at times bitwise equal to the last call's returns that
        table again, read-only, so runs of one load on one grid sample
        it once.  The table lives as long as the returned signal.
        """
        twin = DisturbanceSignal(self._times, self._values)
        twin._last = ()
        return twin

    def __call__(self, t):
        """w at time(s) t, with shape t.shape + (n,)."""
        t = np.asarray(t, dtype=float)
        if self.is_constant:
            return np.broadcast_to(self._values, t.shape + self._values.shape).copy()
        last = self._last
        if last and np.array_equal(last[0].view(np.int64), t.view(np.int64)):
            return last[1]
        tt = t.ravel()
        out = np.empty((tt.size, self.n))
        for j in range(self.n):
            out[:, j] = np.interp(tt, self._times, self._values[:, j])
        out = out.reshape(t.shape + (self.n,))
        if last is not None:
            out.flags.writeable = False
            self._last = t.copy(), out
        return out


@dataclass(frozen=True, eq=False)
class TuningReport:
    """Margins of the two gain rules, positive entries are compliant."""

    integral_margin: np.ndarray      # a * p - r
    antiwindup_margin: np.ndarray    # 1 - p * s
    passed: bool


def check_tuning(plant: PlantModel, ctrl: ControllerSpec) -> TuningReport:
    """Check the per-agent gain rules a_i p_i > r_i and p_i s_i < 1.

    These are sufficient conditions for the stability certificate; a
    violation is a warning, not an error, and simulation stays available.
    """
    if not ctrl.is_pi:
        raise UnsupportedVariant("tuning rules apply to PI variants only")
    if ctrl.n != plant.n:
        raise DimensionMismatch("controller width disagrees with plant")
    integral = plant.a * ctrl.p - ctrl.r
    antiwindup = 1.0 - ctrl.p * ctrl.s
    passed = bool(np.all(integral > 0.0) and np.all(antiwindup > 0.0))
    return TuningReport(integral, antiwindup, passed)
