"""Elementwise sector-bounded nonlinearity pairs.

A pair couples a componentwise map f, with f(0) = 0 and all incremental
slopes inside [0, 1], to its complement h(u) = u - f(u).  The canonical
instance is saturation paired with the deadzone.  Shifting a pair around
an operating point and rescaling it coordinatewise both stay inside the
class; the transforms here act exactly on the underlying piecewise-linear
description instead of resampling it.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DimensionMismatch, InvalidSectorPair

KIND_SATURATION = "saturation_deadzone"
KIND_IDENTITY = "identity_zero"
KIND_CUSTOM = "custom_pwl"

_SLOPE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class PwlFunction:
    """Continuous piecewise-linear scalar function.

    Defined by knot/value pairs plus extension slopes to the left of the
    first knot and to the right of the last one.  A single knot is
    allowed (two half lines meeting at a point).  This is the
    per-coordinate input of a ``SectorPair``, which evaluates its
    components together.
    """

    knots: np.ndarray
    values: np.ndarray
    slope_left: float
    slope_right: float

    def __post_init__(self):
        knots = np.atleast_1d(np.asarray(self.knots, dtype=float))
        values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if knots.ndim != 1 or knots.shape != values.shape or knots.size == 0:
            raise InvalidSectorPair("knots and values must be matching 1-d arrays")
        if not (np.all(np.isfinite(knots)) and np.all(np.isfinite(values))):
            raise InvalidSectorPair("knots and values must be finite")
        if knots.size > 1 and np.any(np.diff(knots) <= 0.0):
            raise InvalidSectorPair("knots must be strictly increasing")
        if not (np.isfinite(self.slope_left) and np.isfinite(self.slope_right)):
            raise InvalidSectorPair("extension slopes must be finite")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return _table_f(SectorPair(KIND_CUSTOM, (self,)), x[..., None])[..., 0]

    def integral_from_zero(self, b):
        """Exact integral of the function from 0 to b, vectorized in b."""
        b = np.asarray(b, dtype=float)
        return integral_from_zero(SectorPair(KIND_CUSTOM, (self,)),
                                  b[..., None])[..., 0]


class SectorPair:
    """A componentwise sector nonlinearity f with its complement h = id - f.

    The components are stacked once, when the pair is made, into padded
    tables with one column per coordinate: ``knots`` and ``values`` of
    shape (K, n), where a coordinate with fewer knots repeats its last
    knot and value, and the extension slopes ``slope_left`` and
    ``slope_right`` of shape (n,).  Segment ``j`` runs from ``lo[j]`` to
    ``hi[j]`` with slope ``slope[j]`` (all (K - 1, n)); padded segments
    have zero length and slope 0.
    """

    def __init__(self, kind: str, components: Sequence[PwlFunction]):
        comps = tuple(components)
        if not comps:
            raise InvalidSectorPair("at least one component required")
        size = np.array([c.knots.size for c in comps])
        # row j of column i takes knot min(j, size_i - 1) of component i
        take = (np.cumsum(size) - size
                + np.minimum(np.arange(size.max())[:, None], size - 1))
        self._set_tables(kind, np.concatenate([c.knots for c in comps])[take],
                         np.concatenate([c.values for c in comps])[take],
                         np.array([c.slope_left for c in comps]),
                         np.array([c.slope_right for c in comps]))

    @classmethod
    def _from_tables(cls, kind, knots, values, slope_left,
                     slope_right) -> "SectorPair":
        pair = cls.__new__(cls)
        pair._set_tables(kind, knots, values, slope_left, slope_right)
        return pair

    def _set_tables(self, kind, knots, values, slope_left, slope_right):
        self.kind = kind
        self.knots, self.values = knots, values
        self.slope_left, self.slope_right = slope_left, slope_right
        self.lo, self.hi = knots[:-1], knots[1:]
        run = self.hi - self.lo
        self.slope = np.divide(np.diff(values, axis=0), run,
                               out=np.zeros_like(run), where=run > 0.0)

    @property
    def n(self) -> int:
        return self.knots.shape[1]


def saturation_deadzone(n: int) -> SectorPair:
    """The clip-to-[-1, 1] pair: f = sat, h = deadzone."""
    comp = PwlFunction(np.array([-1.0, 1.0]), np.array([-1.0, 1.0]), 0.0, 0.0)
    return SectorPair(KIND_SATURATION, (comp,) * int(n))


def identity_zero(n: int) -> SectorPair:
    """The unconstrained pair: f = id, h = 0."""
    comp = PwlFunction(np.zeros(1), np.zeros(1), 1.0, 1.0)
    return SectorPair(KIND_IDENTITY, (comp,) * int(n))


def custom_pwl(components: Sequence[PwlFunction]) -> SectorPair:
    """Assemble a pair from per-coordinate piecewise-linear components.

    Every component must satisfy f(0) = 0 and keep all slopes inside
    [0, 1].  A deliberately nonconforming pair is built with
    ``SectorPair(KIND_CUSTOM, components)``.
    """
    pair = SectorPair(KIND_CUSTOM, components)
    slopes = np.vstack([pair.slope_left, pair.slope, pair.slope_right])
    bad_slope = np.any((slopes < -_SLOPE_TOL) | (slopes > 1.0 + _SLOPE_TOL),
                       axis=0)
    scale = np.maximum(1.0, np.max(np.abs(pair.values), axis=0))
    bad_zero = (np.abs(_table_f(pair, np.zeros(pair.n)))
                > _SLOPE_TOL * scale)
    bad = np.flatnonzero(bad_slope | bad_zero)
    if bad.size:
        i = int(bad[0])
        what = ("slopes must lie in [0, 1]" if bad_slope[i]
                else "f(0) must be 0")
        raise InvalidSectorPair(f"component {i}: {what}")
    return pair


def _check_width(pair: SectorPair, u: np.ndarray) -> None:
    if u.shape[-1:] != (pair.n,):
        raise DimensionMismatch(
            f"last axis of input has size {u.shape[-1] if u.ndim else 0}, "
            f"pair has {pair.n} coordinates")


def _table_f(pair: SectorPair, u: np.ndarray) -> np.ndarray:
    """f from the tables: first value, clipped segments, extensions.

    On a row with one segment this rounds as ``np.interp`` with the
    extension slopes does, so scaled and shifted saturation pairs agree
    with the per-coordinate evaluation bit for bit.
    """
    k0, km = pair.knots[0], pair.knots[-1]
    c = np.minimum(np.maximum(u[..., None, :], pair.lo), pair.hi)
    return (pair.values[0] + np.add.reduce(pair.slope * (c - pair.lo), axis=-2)
            + pair.slope_left * np.minimum(u - k0, 0.0)
            + pair.slope_right * np.maximum(u - km, 0.0))


def _table_antiderivative(pair: SectorPair, u: np.ndarray) -> np.ndarray:
    """The integral of f from the first knot to u, exact on every piece.

    Past the last knot it is written from the last knot (the area up to
    it plus the right extension), so a large saturated input does not
    cancel the segment terms against the first value.
    """
    k0, km = pair.knots[0], pair.knots[-1]
    x = u[..., None, :]
    c = np.minimum(np.maximum(x, pair.lo), pair.hi)
    run = c - pair.lo
    inner = np.add.reduce(0.5 * pair.slope * run * run
                          + pair.slope * run * (x - c), axis=-2)
    left = np.minimum(u - k0, 0.0)
    from_first = (pair.values[0] * (u - k0)
                  + (inner + 0.5 * pair.slope_left * left * left))
    area = np.add.reduce(0.5 * (pair.values[1:] + pair.values[:-1])
                         * (pair.hi - pair.lo), axis=0)
    right = u - km
    from_last = (area + pair.values[-1] * right
                 + 0.5 * pair.slope_right * right * right)
    return np.where(u >= km, from_last, from_first)


def _saturate(u: np.ndarray) -> np.ndarray:
    # np.clip(u, -1, 1) value for value, -0.0 and NaN included, at about
    # half its call cost
    return np.minimum(np.maximum(u, -1.0), 1.0)


def bind_f(pair: SectorPair) -> Callable[[np.ndarray], np.ndarray]:
    """f of ``pair`` as a function of a float array, resolved once.

    The function skips the input checks of :func:`eval_f`; callers that
    evaluate f many times on arrays they built bind it once.
    """
    if pair.kind == KIND_SATURATION:
        return _saturate
    return partial(_table_f, pair)


def eval_f(pair: SectorPair, u) -> np.ndarray:
    """Apply f along the last axis of ``u`` (any number of leading axes)."""
    u = np.asarray(u, dtype=float)
    _check_width(pair, u)
    return bind_f(pair)(u)


def integral_from_zero(pair: SectorPair, b) -> np.ndarray:
    """Exact integral of f from 0 to b along the last axis of ``b``."""
    b = np.asarray(b, dtype=float)
    _check_width(pair, b)
    return (_table_antiderivative(pair, b)
            - _table_antiderivative(pair, np.zeros(pair.n)))


def shift_pair(pair: SectorPair, x0) -> SectorPair:
    """Recenter the pair at the operating point x0 (componentwise).

    The result represents f~(x) = f(x + x0) - f(x0), which stays in the
    sector class with f~(0) = 0; the complement shifts consistently.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    _check_width(pair, x0)
    if not np.all(np.isfinite(x0)):
        raise InvalidSectorPair("shift must be finite")
    return SectorPair._from_tables(KIND_CUSTOM, pair.knots - x0,
                                   pair.values - _table_f(pair, x0),
                                   pair.slope_left, pair.slope_right)


def scale_pair(pair: SectorPair, d) -> SectorPair:
    """Conjugate the pair by a positive diagonal: f~(x) = d f(x / d).

    Incremental slopes are unchanged, so the sector class is preserved.
    """
    d = np.atleast_1d(np.asarray(d, dtype=float))
    _check_width(pair, d)
    if np.any(d <= 0.0) or not np.all(np.isfinite(d)):
        raise InvalidSectorPair("scaling vector must be positive and finite")
    return SectorPair._from_tables(KIND_CUSTOM, d * pair.knots, d * pair.values,
                                   pair.slope_left, pair.slope_right)
