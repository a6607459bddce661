"""Quadrature, sinc, and sine-integral unit tests.

Reference values were computed independently with mpmath at 30 digits and
are frozen here as literals.
"""

import math
import tracemalloc

import numpy as np
import pytest

from nbofdma import numerics
from nbofdma.numerics import (
    QuadratureError,
    QuadratureSpec,
    exp1_scaled,
    exp1_scaled_faded,
    integrate,
    sin_pi,
    sinc,
    sinc_squared,
    sine_integral,
)

# mpmath, dps=30
SI_ORACLE = {
    0.0: 0.0,
    0.5: 0.49310741804306669,
    2.0: 1.6054129768026948,
    4.0: 1.7582031389490531,
    10.0: 1.658347594218874,
    50.0: 1.5516170724859359,
    1000.0: 1.5702331219687712,
    # a quadrature of sin(t)/t from 4 cannot meet a 1e-13 tolerance at these two
    1915.7894736842104: 1.570360447593320683175046,
    5585.197034676298: 1.570644145532555179286674,
    1e5: 1.570806320399394122839171,
}
SINC_SQ_0_1 = 0.45141166679014031
SINC_SQ_M3_7 = 0.97597542687255027
TWO_OVER_PI = 0.63661977236758134


# ---------------------------------------------------------------------------
# sinc

def test_sinc_basics():
    assert sinc(0.0) == 1.0
    assert sinc(0.5) == pytest.approx(TWO_OVER_PI, rel=1e-15)
    assert sinc(-0.5) == sinc(0.5)


def test_sinc_integer_zeros_are_exact():
    for k in (1, 2, 3, 17, -4, 1000):
        assert sinc(float(k)) == 0.0


def test_sinc_array_matches_scalar():
    xs = np.array([-2.0, -0.75, 0.0, 0.3, 1.0, 2.5, 7.0])
    out = sinc(xs)
    assert out.shape == xs.shape
    for x, y in zip(xs, out):
        assert y == sinc(float(x))
    assert out[4] == 0.0 and out[6] == 0.0


def test_sinc_squared_integer_cases_are_exact():
    gaps = np.array([0.0, 0.0, -3.0, 5.0, 398.0, -1.0, 2.0, 4.0])
    offsets = np.array([0.0, -0.0, 3.0, 0.0, 0.0, 0.0, -2.0, 1.0])
    out = sinc_squared(gaps, offsets)
    assert out.tolist() == [1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0]


def test_sinc_squared_matches_mpmath_at_large_gaps():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(11)
    gaps = rng.integers(-398, 399, size=400).astype(float)
    offsets = np.concatenate([rng.uniform(-1.0, 1.0, 300),
                              rng.integers(-1, 2, 100) + rng.uniform(-1e-6, 1e-6, 100)])
    out = sinc_squared(gaps, offsets)
    with mpmath.workdps(40):
        for g, d, y in zip(gaps, offsets, out):
            x = mpmath.mpf(g) + mpmath.mpf(d)
            exact = (mpmath.sin(mpmath.pi * x) / (mpmath.pi * x)) ** 2
            assert abs(y - exact) <= 1e-13 * exact


# spans on either side of each step of the series' term count and of the
# 1/2 seam, where the rint reduction starts
SPANS = sorted({s for reach in numerics._SIN_PI_REACH + (0.5,)
                for s in (np.nextafter(reach, 0.0), reach, np.nextafter(reach, 1.0))}
               | {0.75, 1.0, 2.0})


def test_sinc_squared_with_a_span_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(12)
    for span in SPANS:
        gaps = np.concatenate([np.zeros(40), rng.integers(-398, 399, size=80)]).astype(float)
        offsets = span * np.concatenate([rng.uniform(-1.0, 1.0, 116), [1.0, -1.0] * 2])
        out = sinc_squared(gaps, offsets, span)
        with mpmath.workdps(40):
            for g, d, y in zip(gaps, offsets, out):
                x = mpmath.mpf(g) + mpmath.mpf(d)
                if x == mpmath.floor(x):  # exact at whole numbers
                    assert y == (1.0 if x == 0 else 0.0), (span, g, d)
                    continue
                exact = (mpmath.sin(mpmath.pi * x) / (mpmath.pi * x)) ** 2
                assert abs(y - exact) <= 1e-13 * exact, (span, g, d)


def test_sinc_squared_with_a_span_keeps_its_exact_values():
    rng = np.random.default_rng(13)
    gaps = np.arange(-6.0, 7.0)[:, None]
    for span in SPANS:
        # whole-number offsets: 1 on the centre, 0 elsewhere
        wholes = np.tile(np.arange(-math.floor(span), math.floor(span) + 1.0), (gaps.size, 1))
        out = sinc_squared(gaps, wholes, span)
        assert np.array_equal(out, (gaps + wholes == 0.0).astype(float)), span
        # never above 1, and even bit for bit
        offsets = np.tile(span * np.concatenate([rng.uniform(-1.0, 1.0, 500), [1.0, -1.0]]),
                          (gaps.size, 1))
        forward = sinc_squared(gaps, offsets, span)
        assert np.all(forward <= 1.0), span
        backward = sinc_squared(-gaps, -offsets, span)
        assert np.array_equal(forward.view(np.uint64), backward.view(np.uint64)), span


@pytest.mark.parametrize("span", [None, 0.4, 2.0])
def test_sinc_squared_takes_the_broadcast_shape(span):
    # a gap column against an offset row: each element is that of its own call
    gaps = np.arange(-6.0, 7.0)[:, None]
    offsets = np.array([[-0.4, -0.1, 0.0, 0.25, 0.4]]) * (4.0 if span == 2.0 else 1.0)
    out = sinc_squared(gaps, offsets, span)
    assert out.shape == (13, 5)
    loop = np.array([[sinc_squared(g, np.array([d]), span)[0] for d in offsets[0]]
                     for g in gaps[:, 0]])
    assert np.array_equal(out.view(np.uint64), loop.view(np.uint64))


def test_sinc_squared_in_reused_buffers_keeps_every_bit():
    # one pair of buffers across spans (cut series, clamped or not, and the
    # rint reduction above 1/2) and row counts, as the Monte Carlo tiles use it
    rng = np.random.default_rng(14)
    shape = (64, 9, 8)
    gaps = np.broadcast_to(np.arange(-4.0, 5.0)[:, None], shape).copy()
    out, work = np.empty(shape), np.empty((2,) + shape)
    for span, rows in [(0.012, 64), (0.3, 17), (0.49, 64), (0.6, 5), (None, 33),
                       (2.0, 64), (0.12, 1), (0.5, 40)]:
        reach = 2.0 if span is None else span
        offsets = reach * rng.uniform(-1.0, 1.0, (rows,) + shape[1:])
        offsets[0, 4, :2] = 0.0, -0.0  # centre elements
        expected = sinc_squared(gaps[:rows], offsets, span)
        dest = out[:rows]
        got = sinc_squared(gaps[:rows], offsets, span, dest, work[:, :rows])
        assert got is dest
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), span
        assert got[0, 4, 0] == got[0, 4, 1] == 1.0


def test_sinc_squared_in_buffers_allocates_no_float_array():
    shape = (64, 9, 8)
    gaps = np.broadcast_to(np.arange(-4.0, 5.0)[:, None], shape).copy()
    offsets = 0.3 * np.random.default_rng(15).uniform(-1.0, 1.0, shape)
    out, work = np.empty(shape), np.empty((2,) + shape)
    tracemalloc.start()
    try:
        for span in (0.3, 2.0):
            tracemalloc.reset_peak()
            sinc_squared(gaps, offsets, span, out, work)
            peak = tracemalloc.get_traced_memory()[1]
            # the centre test's boolean mask is an eighth of a float tile
            assert peak < out.nbytes / 4, span
    finally:
        tracemalloc.stop()


def test_sin_pi_terms_follow_the_span():
    # the fewest terms whose remainder (pi s)^(2K) / (2K+1)! is below 2^-60
    # at s = min(span, 1/2)
    assert [numerics._sin_pi_terms(span) for span in (1e-5, 0.012, 0.12, 0.4, 0.5, 2.0)] \
        == [2, 5, 8, 11, 11, 11]
    assert numerics._sin_pi_terms(None) == 12
    for terms, reach in enumerate(numerics._SIN_PI_REACH, start=2):
        assert numerics._sin_pi_terms(np.nextafter(reach, 0.0)) == terms
        assert numerics._sin_pi_terms(reach) == min(terms + 1, 11)  # 11 reach past 1/2
        assert (math.pi * reach) ** (2 * terms) / math.factorial(2 * terms + 1) \
            == pytest.approx(2.0 ** -60, rel=1e-12)


def test_sin_pi_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(23)
    tiny = np.finfo(float).tiny
    edges = np.array([0.5, np.nextafter(0.5, 0.0), 0.25, 1.0 / 3.0, 1.0 / 6.0,
                      1e-8, 1e-100, 4.0 * tiny, tiny])
    rs = np.concatenate([rng.uniform(-0.5, 0.5, 2000), edges, -edges])
    out = sin_pi(rs)
    with mpmath.workdps(40):
        for r, y in zip(rs, out):
            exact = mpmath.sin(mpmath.pi * mpmath.mpf(float(r)))
            assert abs(y - exact) <= 1e-15 * abs(exact)


def test_sin_pi_stays_in_range_next_to_half():
    # the unclamped series rounds to 1 + 2^-52 a few ulp below 1/2
    ulp = 2.0 ** -54  # spacing of the floats just below 1/2
    rs = 0.5 - ulp * np.arange(4096)
    assert np.all(np.abs(sin_pi(rs)) <= 1.0)
    assert np.all(np.abs(sin_pi(-rs)) <= 1.0)
    assert sin_pi(0.5) == 1.0 and sin_pi(-0.5) == -1.0


def test_sin_pi_is_odd_bit_for_bit():
    rng = np.random.default_rng(29)
    rs = np.concatenate([rng.uniform(0.0, 0.5, 1000), [0.0, 0.5, 1e-300]])
    assert np.array_equal(sin_pi(-rs).view(np.uint64), (-sin_pi(rs)).view(np.uint64))
    assert np.signbit(sin_pi(-0.0)) and not np.signbit(sin_pi(0.0))


def test_sin_pi_writes_in_place_bit_for_bit():
    rs = np.random.default_rng(30).uniform(-0.5, 0.5, (7, 3))
    expected = sin_pi(rs)
    out = sin_pi(rs, out=rs)
    assert out is rs
    assert np.array_equal(rs.view(np.uint64), expected.view(np.uint64))


def test_sinc_even_property():
    rng = np.random.default_rng(0)
    xs = rng.uniform(-50, 50, size=200)
    assert np.array_equal(sinc(xs), sinc(-xs))


# ---------------------------------------------------------------------------
# sine integral

@pytest.mark.parametrize("x,expected", sorted(SI_ORACLE.items()))
def test_sine_integral_oracle(x, expected):
    assert sine_integral(x) == pytest.approx(expected, rel=1e-12, abs=1e-13)


def test_sine_integral_rejects_negative():
    with pytest.raises(ValueError):
        sine_integral(-0.1)
    with pytest.raises(ValueError):
        sine_integral(math.inf)


def test_sine_integral_monotone_on_first_arch():
    xs = np.linspace(0.0, math.pi, 40)
    vals = [sine_integral(float(x)) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_sine_integral_series_fraction_seam():
    # the implementation switches methods at x = 4; both sides must agree
    below = sine_integral(4.0 - 1e-9)
    above = sine_integral(4.0 + 1e-9)
    assert abs(above - below) < 1e-9


def test_sine_integral_is_continuous_at_40():
    # a continuity check inside the continued fraction's range
    below = sine_integral(40.0 - 1e-9)
    above = sine_integral(40.0 + 1e-9)
    assert abs(above - below) < 1e-9


def test_sine_integral_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    xs = np.logspace(-3.0, 8.0, 401)
    with mpmath.workdps(40):
        for x in xs:
            exact = mpmath.si(mpmath.mpf(float(x)))
            assert abs(sine_integral(float(x)) - exact) <= 1e-15 * exact


def test_sine_integral_needs_no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sine_integral called a quadrature")
    monkeypatch.setattr(numerics, "integrate", refuse)
    # (4, 1e5], from the first float above the series range
    for x in np.geomspace(np.nextafter(4.0, 5.0), 1e5, 200):
        sine_integral(float(x))


# ---------------------------------------------------------------------------
# scaled exponential integral

def test_exp1_scaled_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    seam = numerics._EXP1_SEAM
    near_seam = seam + np.spacing(seam) * np.arange(-3, 4)
    xs = np.concatenate([np.logspace(-6.0, 6.0, 241), near_seam,
                         seam * np.array([0.9, 0.99, 0.999999, 1.000001, 1.01, 1.1]),
                         np.linspace(0.5, 4.0, 71)])
    out = exp1_scaled(xs)
    with mpmath.workdps(40):
        for x, y in zip(xs, out):
            x = mpmath.mpf(float(x))
            exact = mpmath.exp(x) * mpmath.e1(x)
            assert abs(y - exact) <= 1e-14 * exact


def test_exp1_scaled_edge_values():
    assert exp1_scaled(np.inf) == 0.0
    out = exp1_scaled(np.array([[0.01, np.inf], [2.0, 1e300]]))
    assert out.shape == (2, 2) and out[0, 1] == 0.0
    assert out[1, 1] == pytest.approx(1e-300, rel=1e-15)


def test_exp1_scaled_does_not_rise_at_the_seam():
    seam = numerics._EXP1_SEAM
    assert exp1_scaled(np.nextafter(seam, 0.0)) >= exp1_scaled(seam)


# the box over which exp1_scaled_faded holds 1e-12 relative: SNR 1/x in
# [1e-3, 1e6] and relative interferer powers b_j in [0, 1e4]
FADED_SNRS = (1e-3, 0.1, 10.0, 1e3, 1e6)
FADED_POWERS = (0.0, 1e-4, 0.3, 30.0, 1e4)


def test_exp1_scaled_faded_without_faders_is_exp1_scaled():
    x = np.geomspace(1e-6, 1e6, 97)
    expected = exp1_scaled(x)
    for faded in (np.zeros((x.size, 0)), np.zeros((x.size, 1)), np.zeros((x.size, 2))):
        got = exp1_scaled_faded(x, faded)
        assert got.tobytes() == expected.tobytes()


def test_exp1_scaled_faded_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    points = [(snr, b1, b2) for snr in FADED_SNRS for i, b1 in enumerate(FADED_POWERS)
              for b2 in FADED_POWERS[i:]]
    x = np.array([1.0 / snr for snr, _, _ in points])
    faded = np.array([(b1, b2) for _, b1, b2 in points])
    # one fader, the band-edge target's, is the second one at 0
    one = exp1_scaled_faded(x, faded[:, :1])
    for got, (snr, b1, b2), alone in zip(exp1_scaled_faded(x, faded), points, one):
        with mpmath.workdps(30):
            r = 1 / mpmath.mpf(snr)

            def integral(*bs):
                breaks = sorted({r, 1, *(1 / mpmath.mpf(b) for b in bs if b)})
                return mpmath.quad(lambda t: mpmath.exp(-t) / (t + r) / mpmath.fprod(
                    1 + t * b for b in bs), [0, *breaks, mpmath.inf])
            exact = integral(b1, b2)
            assert abs(got - exact) <= 1e-12 * exact, (snr, b1, b2)
            if b2 == 0.0:
                assert abs(alone - exact) <= 1e-12 * exact, (snr, b1)
    # beyond the box, at 100 dB, the head below the rule's first node keeps
    # 7e-14; the rule alone would be 1.2e-11 short
    with mpmath.workdps(30):
        r = mpmath.mpf(10) ** -10
        exact = mpmath.quad(lambda t: mpmath.exp(-t) / ((t + r) * (1 + t) * (1 + 10 * t)),
                            [0, r, 0.1, 1, mpmath.inf])
    assert abs(exp1_scaled_faded(1e-10, [1.0, 10.0]) - exact) <= 1e-12 * exact


def test_exp1_scaled_faded_is_the_mean_capacity_under_faded_interferers():
    # Hamdi's lemma: for Exp(1) weights w_0, w_1, w_2,
    # E[log2(1 + w_0 a / (1 + w_1 b_1 + w_2 b_2))] = log2(e) exp1_scaled_faded(1 / a, b),
    # 2^20 draws per point, 4 standard errors
    rng = np.random.default_rng(31)
    for a, b1, b2 in ((100.0, 0.5, 0.2), (3.0, 2.0, 0.0), (1e4, 40.0, 15.0)):
        w = rng.standard_exponential((3, 1 << 20))
        values = np.log2(1.0 + w[0] * a / (1.0 + w[1] * b1 + w[2] * b2))
        expected = float(exp1_scaled_faded(1.0 / a, [b1, b2])) * math.log2(math.e)
        stderr = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean() - expected) <= 4.0 * stderr, (a, b1, b2)


def test_exp1_scaled_faded_edge_values():
    assert exp1_scaled_faded(np.inf, [1.0, 2.0]) == 0.0
    x = np.array([[0.01, np.inf], [2.0, 1e-3]])
    faded = np.full((2, 2, 2), 0.5)
    out = exp1_scaled_faded(x, faded)
    assert out.shape == (2, 2) and out[0, 1] == 0.0
    assert out[1, 0] == exp1_scaled_faded(2.0, [0.5, 0.5])


# ---------------------------------------------------------------------------
# adaptive quadrature

def test_integrate_polynomial_exactly():
    # 15-point Gauss-Legendre is exact for polynomials up to degree 29
    val = integrate(lambda x: 5 * x**4, 0.0, 2.0)
    assert val == pytest.approx(32.0, rel=1e-14)


def test_integrate_sine_against_closed_form():
    val = integrate(math.sin, 0.0, 2.5)
    assert val == pytest.approx(1.0 - math.cos(2.5), rel=1e-12)


def test_integrate_sinc_squared_oracle():
    f = lambda x: sinc(x) ** 2
    assert integrate(f, 0.0, 1.0) == pytest.approx(SINC_SQ_0_1, rel=1e-11)
    assert integrate(f, -3.0, 7.0) == pytest.approx(SINC_SQ_M3_7, rel=1e-11)


def test_integrate_accepts_vectorized_and_scalar_callables():
    vectorized = integrate(np.cos, 0.0, 1.0)
    scalar = integrate(math.cos, 0.0, 1.0)
    assert vectorized == scalar == pytest.approx(math.sin(1.0), rel=1e-13)


def test_integrate_is_deterministic():
    f = lambda x: np.exp(-x) * np.sin(40.0 * x)
    assert integrate(f, 0.0, 6.0) == integrate(f, 0.0, 6.0)


def test_integrate_linearity():
    a = integrate(lambda x: x**2, 0.0, 3.0)
    b = integrate(np.sin, 0.0, 3.0)
    combined = integrate(lambda x: 2.0 * x**2 + 5.0 * np.sin(x), 0.0, 3.0)
    assert combined == pytest.approx(2 * a + 5 * b, rel=1e-12)


def test_integrate_reversed_interval_rejected():
    with pytest.raises(ValueError):
        integrate(math.sin, 1.0, 0.0)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(relative_tolerance=-1e-9)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)


def test_budget_exhaustion_raises_with_partial_estimate():
    spec = QuadratureSpec(relative_tolerance=1e-14, absolute_tolerance=1e-15,
                          max_subdivisions=4)
    f = lambda x: np.sin(300.0 * x) ** 2
    with pytest.raises(QuadratureError) as info:
        integrate(f, 0.0, 20.0, spec)
    err = info.value
    assert math.isfinite(err.estimate)
    assert err.error_bound > 0.0
    # the partial estimate is still in the right ballpark (exact: ~10)
    assert abs(err.estimate - 10.0) < 2.0
