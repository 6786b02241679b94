"""Elementwise sector-bounded nonlinearity pairs.

A pair couples a componentwise map f, with f(0) = 0 and all incremental
slopes inside [0, 1], to its complement h(u) = u - f(u).  The canonical
instance is saturation paired with the deadzone.  Shifting a pair around
an operating point and rescaling it coordinatewise both stay inside the
class; the transforms here act exactly on the underlying piecewise-linear
description instead of resampling it.

f, its integral and the affine pieces the integrator steps on are all
read from one piece table, built once per pair.  A pair's kind is
saturation or identity when its tables are exactly the ones
``saturation_deadzone`` or ``identity_zero`` builds, and custom
otherwise; no caller labels a pair's kind.
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


class SectorPair:
    """A componentwise sector nonlinearity f with its complement h = id - f.

    The components are stacked once, when the pair is made, into padded
    tables with one column per coordinate: ``knots`` and ``values`` of
    shape (K, n), where a coordinate with fewer knots repeats its last
    knot and value.  From them the pair builds its piece table, all
    (K + 1, n): on piece j, f(u) = icpt[j] + slope[j] u.  Piece 0 is the
    left extension, piece K the right one, and a padded piece has zero
    length and the line of the piece before it.  A piece on the same
    line as the piece before it continues that piece, so each run of
    such pieces is one affine piece: its first piece spans it, from
    ``lo`` to ``hi`` (-inf and inf at the ends), and the others span
    nothing (lo = hi).
    """

    def __init__(self, components: Sequence[PwlFunction]):
        comps = tuple(components)
        if not comps:
            raise InvalidSectorPair("at least one component required")
        size = np.array([c.knots.size for c in comps])
        # row j of column i takes knot min(j, size_i - 1) of component i
        take = (np.cumsum(size) - size
                + np.minimum(np.arange(size.max())[:, None], size - 1))
        self._set_tables(np.concatenate([c.knots for c in comps])[take],
                         np.concatenate([c.values for c in comps])[take],
                         np.array([c.slope_left for c in comps]),
                         np.array([c.slope_right for c in comps]))

    @classmethod
    def _from_tables(cls, knots, values, slope_left,
                     slope_right) -> "SectorPair":
        pair = cls.__new__(cls)
        pair._set_tables(knots, values, slope_left, slope_right)
        return pair

    def _set_tables(self, knots, values, slope_left, slope_right):
        self.knots, self.values = knots, values
        run = np.diff(knots, axis=0)
        pad = run == 0.0
        slope = np.concatenate((slope_left[None], np.divide(
            np.diff(values, axis=0), run, out=np.zeros_like(run),
            where=~pad), slope_right[None]))
        icpt = (np.concatenate((values[:1], values))
                - slope * np.concatenate((knots[:1], knots)))
        if np.count_nonzero(pad):
            # a padded piece takes the line of the piece before it, so
            # the padding never splits an affine piece
            for j in np.flatnonzero(pad.any(axis=1)):
                p = pad[j]
                slope[j + 1, p], icpt[j + 1, p] = slope[j, p], icpt[j, p]
        self.slope, self.icpt = slope, icpt
        # what _table_f reads on every call, as views taken once: the
        # interior pieces (from knot to knot) and the extension slopes
        self._segments = (knots[:-1], knots[1:], self.slope[1:-1],
                          self.slope[0], self.slope[-1])
        # same[j]: piece j + 1 continues piece j; a run ends at the first
        # knot after it where the line changes (knots never decrease),
        # and each piece starts where the piece before it ends
        same = ((self.slope[1:] == self.slope[:-1])
                & (self.icpt[1:] == self.icpt[:-1]))
        edge = np.full((1, self.n), np.inf)
        ends = np.concatenate((np.where(same, np.inf, knots), edge))
        self.hi = np.minimum.accumulate(ends[::-1], axis=0)[::-1]
        self.lo = np.concatenate((-edge, self.hi[:-1]))
        self.kind = _kind(self)

    @property
    def n(self) -> int:
        return self.knots.shape[1]

    def piece_of(self, u: np.ndarray) -> np.ndarray:
        """Row of the piece table spanning each input (last axis of u);
        inputs on one affine piece of f share it."""
        return np.sum(u[..., None, :] > self.lo[1:], axis=-2)


def _kind(pair: SectorPair) -> str:
    # a named kind is exactly the tables its builder below makes; any
    # other table (padded, or with a scaled or shifted pair's moved
    # knots) is custom
    knots, ext = pair.knots, pair.slope[[0, -1]]
    if np.count_nonzero(pair.values != knots):
        return KIND_CUSTOM
    if (len(knots) == 2 and not np.count_nonzero(knots != [[-1.0], [1.0]])
            and not np.count_nonzero(ext)):
        return KIND_SATURATION
    if (len(knots) == 1 and not np.count_nonzero(knots)
            and not np.count_nonzero(ext != 1.0)):
        return KIND_IDENTITY
    return KIND_CUSTOM


def saturation_deadzone(n: int) -> SectorPair:
    """The clip-to-[-1, 1] pair: f = sat, h = deadzone."""
    knots = np.repeat([[-1.0], [1.0]], int(n), axis=1)
    zero = np.zeros(knots.shape[1])
    return SectorPair._from_tables(knots, knots.copy(), zero, zero)


def identity_zero(n: int) -> SectorPair:
    """The unconstrained pair: f = id, h = 0."""
    zero, one = np.zeros((1, int(n))), np.ones(int(n))
    return SectorPair._from_tables(zero, zero.copy(), one, one)


def custom_pwl(components: Sequence[PwlFunction]) -> SectorPair:
    """Assemble a pair from per-coordinate piecewise-linear components.

    Every component must satisfy f(0) = 0 and keep all slopes inside
    [0, 1].  A deliberately nonconforming pair is built with
    ``SectorPair(components)``.
    """
    pair = SectorPair(components)
    bad_slope = np.any((pair.slope < -_SLOPE_TOL)
                       | (pair.slope > 1.0 + _SLOPE_TOL), axis=0)
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
    lo, hi, slope, left, right = pair._segments
    c = np.minimum(np.maximum(u[..., None, :], lo), hi)
    return (pair.values[0] + np.add.reduce(slope * (c - lo), axis=-2)
            + left * np.minimum(u - k0, 0.0)
            + right * np.maximum(u - km, 0.0))


def _table_antiderivative(pair: SectorPair, u: np.ndarray) -> np.ndarray:
    """The integral of f from the first knot to u, exact on every piece.

    Past the last knot it is written from the last knot (the area up to
    it plus the right extension), so a large saturated input does not
    cancel the segment terms against the first value.
    """
    k0, km = pair.knots[0], pair.knots[-1]
    lo, hi, slope, slope_left, slope_right = pair._segments
    x = u[..., None, :]
    c = np.minimum(np.maximum(x, lo), hi)
    run = c - lo
    inner = np.add.reduce(0.5 * slope * run * run + slope * run * (x - c),
                          axis=-2)
    left = np.minimum(u - k0, 0.0)
    from_first = (pair.values[0] * (u - k0)
                  + (inner + 0.5 * slope_left * left * left))
    area = np.add.reduce(0.5 * (pair.values[1:] + pair.values[:-1])
                         * (hi - lo), axis=0)
    right = u - km
    from_last = (area + pair.values[-1] * right
                 + 0.5 * slope_right * right * right)
    return np.where(u >= km, from_last, from_first)


def _saturate(u: np.ndarray) -> np.ndarray:
    # np.clip(u, -1, 1) value for value, -0.0 and NaN included, at about
    # half its call cost
    return np.minimum(np.maximum(u, -1.0), 1.0)


def _clip(k0, k1, v0, s1, u: np.ndarray) -> np.ndarray:
    # _table_f on two knots and flat extensions, its zero terms dropped:
    # they only turn -0.0 into +0.0, as + 0.0 does, so the two agree bit
    # for bit on finite u (an infinite u gives NaN there, an end here)
    return v0 + s1 * (np.minimum(np.maximum(u, k0), k1) - k0) + 0.0


def bind_f(pair: SectorPair) -> Callable[[np.ndarray], np.ndarray]:
    """f of ``pair`` as a function of a float array, resolved once.

    A pair with two knots and flat extensions (saturation, shifted or
    scaled) is a clip.  The function skips the input checks of
    :func:`eval_f`; callers that evaluate f many times on arrays they
    built bind it once.
    """
    if pair.kind == KIND_SATURATION:
        return _saturate
    if len(pair.knots) == 2 and not np.count_nonzero(pair.slope[[0, -1]]):
        return partial(_clip, *pair.knots, pair.values[0], pair.slope[1])
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
    sector class with f~(0) = 0; the complement shifts consistently.  A
    shift so large that two distinct knots of a coordinate round to one
    value raises InvalidSectorPair: the pieces between them would vanish.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    _check_width(pair, x0)
    if not np.all(np.isfinite(x0)):
        raise InvalidSectorPair("shift must be finite")
    knots = pair.knots - x0
    if np.any((np.diff(pair.knots, axis=0) > 0.0)
              & (np.diff(knots, axis=0) <= 0.0)):
        raise InvalidSectorPair("shift merges two distinct knots of a "
                                "coordinate in rounding")
    return SectorPair._from_tables(knots,
                                   pair.values - _table_f(pair, x0),
                                   pair.slope[0], pair.slope[-1])


def scale_pair(pair: SectorPair, d) -> SectorPair:
    """Conjugate the pair by a positive diagonal: f~(x) = d f(x / d).

    Incremental slopes are unchanged, so the sector class is preserved.
    """
    d = np.atleast_1d(np.asarray(d, dtype=float))
    _check_width(pair, d)
    if np.any(d <= 0.0) or not np.all(np.isfinite(d)):
        raise InvalidSectorPair("scaling vector must be positive and finite")
    return SectorPair._from_tables(d * pair.knots, d * pair.values,
                                   pair.slope[0], pair.slope[-1])
