import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_pwl_pair
from pisat import sector
from pisat.errors import DimensionMismatch, InvalidSectorPair


def test_saturation_values():
    pair = sector.saturation_deadzone(3)
    u = np.array([-2.0, 0.3, 5.0])
    np.testing.assert_allclose(sector.eval_f(pair, u), [-1.0, 0.3, 1.0])
    np.testing.assert_allclose(oracles.eval_h(pair, u), [-1.0, 0.0, 4.0])


def test_identity_pair_h_is_zero():
    pair = sector.identity_zero(2)
    u = np.linspace(-3.0, 3.0, 7).reshape(-1, 1) * np.ones(2)
    np.testing.assert_allclose(sector.eval_f(pair, u), u)
    np.testing.assert_allclose(oracles.eval_h(pair, u), 0.0)


def test_eval_shapes():
    pair = sector.saturation_deadzone(4)
    assert sector.eval_f(pair, np.zeros(4)).shape == (4,)
    assert sector.eval_f(pair, np.zeros((7, 4))).shape == (7, 4)
    assert sector.eval_f(pair, np.zeros((2, 5, 4))).shape == (2, 5, 4)
    with pytest.raises(DimensionMismatch):
        sector.eval_f(pair, np.zeros(3))


def test_saturation_matches_clip_bit_for_bit():
    # the saturation fast path gives np.clip's values, the sign of zero
    # and NaN included, whatever the leading axes
    tiny = np.nextafter(0.0, 1.0)
    edge = [np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)]
    special = np.array([0.0, -0.0, 1.0, -1.0, *edge, *(-np.array(edge)),
                        np.inf, -np.inf, np.nan, tiny, -tiny, 1e-310,
                        -1e-310, 1e308, -1e308, 0.5, -0.5])
    n = special.size
    pair = sector.saturation_deadzone(n)
    rng = np.random.default_rng(5)
    for shape in ((n,), (6, n), (3, 1, n)):
        u = np.broadcast_to(special, shape).copy()
        for row in u.reshape(-1, n)[1:]:
            rng.shuffle(row)
        got, want = sector.eval_f(pair, u), np.clip(u, -1.0, 1.0)
        assert got.shape == want.shape and got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))


def test_kind_is_read_off_the_pieces():
    def comp(knots, ext):
        return sector.PwlFunction(np.array(knots), np.array(knots), ext, ext)

    # saturation, once with an extra knot: padded tables are custom
    sat = sector.custom_pwl([comp([-1.0, 1.0], 0.0),
                             comp([-1.0, 0.25, 1.0], 0.0)])
    assert sat.kind == sector.KIND_CUSTOM
    # a clip to [-2, 2] is custom: f(1.5) stays 1.5
    wide = sector.SectorPair([comp([-2.0, 2.0], 0.0)])
    assert wide.kind == sector.KIND_CUSTOM
    assert sector.eval_f(wide, [1.5])[0] == 1.5
    # unit slope through 0 with extra knots is custom, on one piece
    ident = sector.custom_pwl([comp([-2.0, 0.0, 0.5, 3.0], 1.0)] * 2)
    assert ident.kind == sector.KIND_CUSTOM
    np.testing.assert_array_equal(
        ident.piece_of(np.linspace(-9.0, 9.0, 38).reshape(-1, 2)), 0)


def test_padded_pieces_continue_the_line_before_them():
    # a one-knot identity is padded to the three knots of its neighbour;
    # the padding must not split its one piece
    one = sector.PwlFunction([0.0], [0.0], 1.0, 1.0)
    three = sector.PwlFunction([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], 1.0, 1.0)
    pair = sector.custom_pwl([one, three])
    assert pair.kind == sector.KIND_CUSTOM
    np.testing.assert_array_equal(pair.hi[0], np.inf)
    u = np.linspace(-9.0, 9.0, 38).reshape(-1, 2)
    np.testing.assert_array_equal(pair.piece_of(u), 0)
    np.testing.assert_array_equal(sector.eval_f(pair, u), u)


def test_kind_names_exactly_the_builders_tables():
    # every saturation_deadzone(n) pair reads as saturation, and so do
    # the same tables built otherwise; any other table is custom
    for n in (1, 2, 5, 40):
        assert sector.saturation_deadzone(n).kind == sector.KIND_SATURATION
        assert sector.identity_zero(n).kind == sector.KIND_IDENTITY
    sat = sector.saturation_deadzone(3)
    assert sector.shift_pair(sat, np.zeros(3)).kind == sector.KIND_SATURATION
    assert sector.scale_pair(sat, [1.0, 2.0, 1.0]).kind == sector.KIND_CUSTOM
    assert (sector.shift_pair(sector.identity_zero(2), [0.5, 0.0]).kind
            == sector.KIND_CUSTOM)
    clip = sector.PwlFunction([-1.0, 1.0], [-1.0, 1.0], 0.0, 0.0)
    assert sector.custom_pwl([clip] * 2).kind == sector.KIND_SATURATION


def test_custom_pair_validation():
    bad = sector.PwlFunction(np.array([-1.0, 1.0]), np.array([-2.0, 2.0]),
                             0.0, 0.0)  # interior slope 2
    with pytest.raises(InvalidSectorPair):
        sector.custom_pwl([bad])
    offset = sector.PwlFunction(np.array([-1.0, 1.0]),
                                np.array([0.5, 1.5]), 0.0, 0.0)
    with pytest.raises(InvalidSectorPair):
        sector.custom_pwl([offset])  # f(0) != 0
    steep_ext = sector.PwlFunction(np.array([-1.0, 1.0]),
                                   np.array([-1.0, 1.0]), 0.0, 1.5)
    with pytest.raises(InvalidSectorPair):
        sector.custom_pwl([steep_ext])


def test_shift_matches_definition(rng):
    pair = random_pwl_pair(rng, 3)
    x0 = rng.uniform(-3.0, 3.0, 3)
    shifted = sector.shift_pair(pair, x0)
    u = rng.uniform(-6.0, 6.0, (40, 3))
    want = sector.eval_f(pair, u + x0) - sector.eval_f(pair, x0)
    np.testing.assert_allclose(sector.eval_f(shifted, u), want, atol=1e-12)


def test_shift_that_merges_knots_raises():
    # at |x0| = 1.7e16 the knots -1 and 1 of saturation both round to
    # -x0; a padded coordinate repeats its knot, which merges nothing
    pair = sector.saturation_deadzone(2)
    assert sector.shift_pair(pair, [1e15, -1e15]).knots.shape == (2, 2)
    with pytest.raises(InvalidSectorPair, match="merges"):
        sector.shift_pair(pair, [0.0, -1.7e16])
    padded = sector.custom_pwl([
        sector.PwlFunction([0.0], [0.0], 1.0, 1.0),
        sector.PwlFunction([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], 1.0, 1.0)])
    assert sector.shift_pair(padded, [1e17, 0.0]).n == 2


def test_scale_matches_definition(rng):
    pair = random_pwl_pair(rng, 2)
    d = rng.uniform(0.2, 5.0, 2)
    scaled = sector.scale_pair(pair, d)
    u = rng.uniform(-8.0, 8.0, (40, 2))
    want = d * sector.eval_f(pair, u / d)
    np.testing.assert_allclose(sector.eval_f(scaled, u), want, atol=1e-12)


def test_shift_of_saturation_stays_in_sector(rng):
    pair = sector.saturation_deadzone(5)
    for _ in range(10):
        x0 = rng.uniform(-4.0, 4.0, 5)
        rep = oracles.sector_audit(sector.shift_pair(pair, x0), 400,
                                   rng=rng)
        assert rep.passed


def test_audit_catches_out_of_sector():
    # slope 1 everywhere except an interior segment of slope -0.5
    comp = sector.PwlFunction(np.array([-1.0, 0.0, 1.0]),
                              np.array([-1.0, 0.0, -0.5]), 1.0, 1.0)
    pair = sector.SectorPair((comp,))
    rep = oracles.sector_audit(pair, 2000, rng=np.random.default_rng(7))
    assert not rep.passed
    assert rep.f_slope_min < -1e-6


def test_integral_from_zero_matches_quadrature(rng):
    pair = random_pwl_pair(rng, 4)
    for p in (pair, sector.shift_pair(pair, rng.uniform(-3.0, 3.0, 4)),
              sector.scale_pair(pair, rng.uniform(0.2, 5.0, 4))):
        upper = rng.uniform(-8.0, 8.0, (12, p.n))
        got = sector.integral_from_zero(p, upper)
        for i, comp in enumerate(oracles.pair_components(p)):
            def f(x, comp=comp):
                return float(oracles.pwl_eval_interp((comp,), [x])[0])
            single = sector.SectorPair([comp])
            for b, g in zip(upper[:, i], got[:, i]):
                want = oracles.pwl_integral_quad(f, b, breakpoints=comp.knots)
                assert g == pytest.approx(want, abs=1e-10)
                assert sector.integral_from_zero(single, [b])[0] == \
                    pytest.approx(want, abs=1e-10)


def test_stacked_eval_equals_interp_on_saturation_transforms(rng):
    n = 6
    base = sector.saturation_deadzone(n)
    pairs = [sector.scale_pair(base, np.exp(rng.uniform(-5.0, 5.0, n)))]
    for spread in (0.5, 1.0, 3.0, 100.0):
        pairs.append(sector.shift_pair(base, rng.normal(0.0, spread, n)))
    for pair in pairs:
        assert pair.kind == sector.KIND_CUSTOM
        for shape in ((200, n), (20, 10, n)):
            # signed, magnitudes from 1e-3 up to 1e6
            u = (rng.uniform(-1.0, 1.0, shape)
                 * 10.0 ** rng.uniform(-3.0, 6.0, shape))
            u[0] = pair.knots[0]    # exactly on the knots
            u[1] = pair.knots[-1]
            np.testing.assert_array_equal(
                sector.eval_f(pair, u),
                oracles.pwl_eval_interp(oracles.pair_components(pair),
                                        u))


def test_stacked_eval_matches_interp_on_custom_pairs(rng):
    single = sector.PwlFunction(np.zeros(1), np.zeros(1), 0.3, 0.7)
    comps = oracles.pair_components(random_pwl_pair(rng, 5)) + (single,)
    pair = sector.custom_pwl(comps)
    assert len({c.knots.size for c in comps}) > 2    # padding exercised
    n = pair.n
    for p in (pair, sector.shift_pair(pair, rng.uniform(-3.0, 3.0, n)),
              sector.scale_pair(pair, rng.uniform(0.2, 5.0, n))):
        for shape in ((n,), (300, n), (20, 15, n)):
            u = rng.uniform(-20.0, 20.0, shape)
            np.testing.assert_allclose(
                sector.eval_f(p, u),
                oracles.pwl_eval_interp(oracles.pair_components(p), u),
                rtol=0.0, atol=1e-12)


def test_integral_vectorized_and_signed():
    comp = oracles.pair_components(sector.saturation_deadzone(1))[0]
    vals = sector.integral_from_zero(
        sector.SectorPair([comp]),
        np.array([-3.0, -1.0, 0.0, 1.0, 3.0])[:, None])[:, 0]
    # sat integral: |b| <= 1 gives b^2/2, beyond that |b| - 1/2
    np.testing.assert_allclose(vals, [2.5, 0.5, 0.0, 0.5, 2.5], atol=1e-14)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.floats(-20.0, 20.0))
def test_pwl_slopes_stay_in_sector(seed, u):
    rng = np.random.default_rng(seed)
    pair = random_pwl_pair(rng, 1)
    single = sector.SectorPair([oracles.pair_components(pair)[0]])
    v = u + 0.25
    df = (float(sector.eval_f(single, [v])[0])
          - float(sector.eval_f(single, [u])[0])) / 0.25
    assert -1e-9 <= df <= 1.0 + 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.floats(-5.0, 5.0),
       st.floats(0.1, 10.0))
def test_shift_scale_compose(seed, x0, d):
    rng = np.random.default_rng(seed)
    pair = random_pwl_pair(rng, 1)
    u = np.linspace(-9.0, 9.0, 41).reshape(-1, 1)
    f = sector.eval_f
    both = sector.scale_pair(sector.shift_pair(pair, [x0]), [d])
    want = d * (f(pair, u / d + x0) - f(pair, np.array([x0])))
    np.testing.assert_allclose(f(both, u), want, atol=1e-10)
