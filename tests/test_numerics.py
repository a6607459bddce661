"""Quadrature, sinc, and sine-integral unit tests.

Reference values were computed independently with mpmath at 30 digits and
are frozen here as literals.
"""

import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from nbofdma import montecarlo, numerics
from nbofdma.sysmodel import CellConfig, sample_cell_batch
from nbofdma.numerics import (
    SURROGATE_TERMS,
    QuadratureError,
    QuadratureSpec,
    doppler_power_scale,
    hamdi_basis,
    hamdi_factors,
    hamdi_rule,
    integrate,
    odd_power_scale,
    sin_pi,
    sinc,
    sinc_squared,
    sinc_squared_pair,
    sine_integral,
    surrogate_mean,
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


def test_the_mirror_is_the_kernel_on_the_negated_offsets_bit_for_bit():
    # at every span, below 1/2 (the offset its own r) and above (the rint
    # reduction), with whole-number offsets among the others: where
    # gap - offset == 0 (off gap 0, spans of at least 1) the mirror is
    # exactly 1, and the result keeps the bits of the call without a
    # mirror.  The mirror may be work[1], which the sine is done with
    rng = np.random.default_rng(14)
    gaps = np.broadcast_to(np.arange(-3.0, 4.0)[None, :, None], (60, 7, 3))
    for span in SPANS:
        offsets = span * rng.uniform(-1.0, 1.0, gaps.shape)
        wholes = np.arange(-math.floor(span), math.floor(span) + 1.0)
        offsets[:wholes.size, :, 0] = wholes[:, None]
        work = np.empty((2,) + gaps.shape)
        forward, mirror = sinc_squared(gaps, offsets, span, np.empty(gaps.shape), work, work[1])
        assert np.shares_memory(mirror, work[1])
        assert np.array_equal(forward.view(np.uint64),
                              sinc_squared(gaps, offsets, span).view(np.uint64)), span
        negated = sinc_squared(gaps, -offsets, span)
        assert np.array_equal(mirror.view(np.uint64), negated.view(np.uint64)), span
        centre = gaps - offsets == 0.0
        assert np.all(mirror[centre] == 1.0), span
        assert (centre & (gaps != 0.0)).any() == (span >= 1.0), span


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


PAIR_SPANS = (0.012, 0.05, 0.12, 0.3, 0.4, 0.48, 0.49)


def _halves(gaps):
    return (math.pi * gaps) ** 2 / 2.0


def test_the_pair_form_is_the_two_sided_kernels_sum():
    # sinc^2(g + o) + sinc^2(g - o) from one sine series and one
    # denominator pass, against the sum of the two-sided kernel's pair, at
    # gaps +-1..+-24 (every |g| >= 2 span) and offsets up to the span, its
    # ends included
    rng = np.random.default_rng(16)
    gaps = np.broadcast_to(np.setdiff1d(np.arange(-24.0, 25.0), [0.0])[None, :, None],
                           (40, 48, 3))
    for span in PAIR_SPANS:
        offsets = span * rng.uniform(-1.0, 1.0, gaps.shape)
        offsets[0], offsets[1] = span, -span
        work = np.empty((2,) + gaps.shape)
        forward, mirror = sinc_squared(gaps, offsets, span, np.empty(gaps.shape), work, work[1])
        pair = sinc_squared_pair(_halves(gaps), offsets, span)
        assert pair == pytest.approx(forward + mirror, rel=1e-14, abs=0.0), span


def test_the_pair_form_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(17)
    gaps = np.setdiff1d(np.arange(-24.0, 25.0), [0.0])
    for span in PAIR_SPANS:
        offsets = span * rng.uniform(-1.0, 1.0, gaps.shape)
        offsets[:2] = span, -span
        pair = sinc_squared_pair(_halves(gaps), offsets, span)
        with mpmath.workdps(40):
            for g, d, got in zip(gaps, offsets, pair):
                g, d = mpmath.mpf(g), mpmath.mpf(d)
                exact = mpmath.sincpi(g + d) ** 2 + mpmath.sincpi(g - d) ** 2
                assert abs(got - exact) <= 1e-14 * exact, (span, g, d)


def test_the_pair_form_gives_exactly_zero_at_a_whole_number_offset():
    # within a span of at most 1/2 the one whole-number offset is 0 (either sign)
    gaps = np.setdiff1d(np.arange(-24.0, 25.0), [0.0])
    for span in PAIR_SPANS:
        for zero in (0.0, -0.0):
            pair = sinc_squared_pair(_halves(gaps), np.full(gaps.shape, zero), span)
            assert np.all(pair == 0.0), span


def test_the_pair_form_in_buffers_keeps_every_bit_and_allocates_nothing():
    rng = np.random.default_rng(18)
    shape = (64, 8, 8)
    halves = _halves(np.broadcast_to(np.arange(1.0, 9.0)[:, None], shape).copy())
    out, work = np.empty(shape), np.empty((2,) + shape)
    tracemalloc.start()
    try:
        for span in (0.012, 0.3, 0.49, 0.5):
            offsets = span * rng.uniform(-1.0, 1.0, shape)
            expected = sinc_squared_pair(halves, offsets, span)
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            got = sinc_squared_pair(halves, offsets, span, out, work)
            assert tracemalloc.get_traced_memory()[1] - held < 1024, span
            assert got is out
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), span
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


def _si_scalar(x: float) -> float:
    # the scalar route the array one replaced: the series summed term by
    # term until a term is below 1e-17 of the sum, and the fraction at its
    # own depth of 3 + 170 / x levels
    if x <= 4.0:
        numerator = total = x
        k = 0
        while True:
            k += 1
            numerator *= -x * x / ((2 * k) * (2 * k + 1))
            term = numerator / (2 * k + 1)
            total += term
            if abs(term) <= 1e-17 * abs(total):
                return total
    z, depth = complex(0.0, x), 3 + int(170.0 / x)
    fraction = 2.0 * depth + 1.0
    for k in range(depth, 0, -1):
        fraction = (2.0 * k - 1.0) - k * k / (fraction + z)
    f = 1.0 / (fraction + z)
    return math.pi / 2.0 + math.cos(x) * f.imag - math.sin(x) * f.real


@pytest.mark.parametrize("low,high", [(1e-6, 4.0), (4.0, 1e8)], ids=["series", "fraction"])
def test_sine_integral_takes_arrays(low, high):
    # an array in one call, shaped as given, within 1e-14 of the scalar
    # route on both branches; the fraction runs at the depth of the
    # smallest argument above 4, deeper than a large argument alone needs
    xs = np.geomspace(low, high, 600).reshape(20, 30)
    got = sine_integral(xs)
    assert got.shape == xs.shape
    want = np.array([_si_scalar(float(x)) for x in xs.ravel()]).reshape(xs.shape)
    assert np.max(abs(got - want) / want) <= 1e-14
    assert isinstance(sine_integral(float(xs[0, 0])), float)
    assert sine_integral(np.zeros(0)).shape == (0,)
    with pytest.raises(ValueError):
        sine_integral(np.array([1.0, -0.1]))
    with pytest.raises(ValueError):
        sine_integral(np.array([1.0, math.nan]))


def test_sine_integral_needs_no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sine_integral called a quadrature")
    monkeypatch.setattr(numerics, "integrate", refuse)
    # (4, 1e5], from the first float above the series range
    for x in np.geomspace(np.nextafter(4.0, 5.0), 1e5, 200):
        sine_integral(float(x))


# the box over which the rule at one trial holds 5e-16 relative: SNR 1/x
# in [1e-3, 1e6] and relative interferer powers b_j in [0, 1e4]
FADED_SNRS = (1e-3, 0.1, 10.0, 1e3, 1e6)
FADED_POWERS = (0.0, 1e-4, 0.3, 30.0, 1e4)


def faded_capacity(x, faded):
    # int_0^inf e^-t / ((t + x) prod_j (1 + t b_j)) dt per entry of x, b_j
    # = faded[..., j]: the rule at one trial, sized to the entry's largest
    # scale, the signal's factor 1 / (x + t) being u / (1 + t u), u = 1/x
    x = np.asarray(x, dtype=float)
    faded = np.asarray(faded, dtype=float).reshape(x.size, -1)
    out = []
    for snr, powers in zip(1.0 / x.ravel(), faded):
        nodes, weights = hamdi_rule(max(snr, powers.max(initial=0.0)))
        factors = hamdi_factors(nodes, np.concatenate([[snr], powers])[:, None])
        out.append(snr * float(np.prod(factors[:, 0], axis=0) @ weights))
    return np.array(out).reshape(x.shape)


# float.hex of the former numerics.exp1_scaled_faded, the fading average of
# one trial, on a fixed (256, 2) input, as the fixed 197-node rule from
# s = ln t = -45 with a first-order head gave them; the rule sized to each
# entry's scale, with the Gauss sum of its left tail, keeps them within
# 2.5e-16
FADED_FORMER = {0: "0x1.959e19d59eae1p+2", 5: "0x1.8466b005b1112p+2", 64: "0x1.3c87439f0d8bep+1",
                128: "0x1.8f74a041164d0p-2", 200: "0x1.0039deee21410p-11",
                255: "0x1.cf7c48d7bca06p-21"}


def test_the_rule_at_one_trial_reproduces_the_former_fading_average():
    x = np.geomspace(1e-3, 1e3, 256)
    faded = np.stack([np.geomspace(1e-4, 1e4, 256), np.geomspace(1e2, 1e-6, 256)], axis=1)
    faded[::5, 1] = 0.0  # every fifth row has one fader
    out = faded_capacity(x, faded)
    for i, former in FADED_FORMER.items():
        assert out[i] == pytest.approx(float.fromhex(former), rel=5e-16, abs=0.0), i


def test_the_rule_at_one_trial_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    points = [(snr, b1, b2) for snr in FADED_SNRS for i, b1 in enumerate(FADED_POWERS)
              for b2 in FADED_POWERS[i:]]
    x = np.array([1.0 / snr for snr, _, _ in points])
    faded = np.array([(b1, b2) for _, b1, b2 in points])
    # one fader, the band-edge target's, is the second one at 0
    one = faded_capacity(x, faded[:, :1])
    for got, (snr, b1, b2), alone in zip(faded_capacity(x, faded), points, one):
        with mpmath.workdps(30):
            r = 1 / mpmath.mpf(snr)

            def integral(*bs):
                breaks = sorted({r, 1, *(1 / mpmath.mpf(b) for b in bs if b)})
                return mpmath.quad(lambda t: mpmath.exp(-t) / (t + r) / mpmath.fprod(
                    1 + t * b for b in bs), [0, *breaks, mpmath.inf])
            exact = integral(b1, b2)
            assert abs(got - exact) <= 5e-16 * exact, (snr, b1, b2)
            if b2 == 0.0:
                assert abs(alone - exact) <= 5e-16 * exact, (snr, b1)
    # beyond the box, at 100 dB, the rule starts lower (127 nodes) and keeps
    # 1e-16; the fixed rule from ln t = -45 kept 7e-14
    with mpmath.workdps(30):
        r = mpmath.mpf(10) ** -10
        exact = mpmath.quad(lambda t: mpmath.exp(-t) / ((t + r) * (1 + t) * (1 + 10 * t)),
                            [0, r, 0.1, 1, mpmath.inf])
    assert abs(faded_capacity(1e-10, [1.0, 10.0]) - exact) <= 5e-16 * exact


def test_the_rule_sums_its_left_tail_by_the_gauss_rule_of_that_tail():
    # the trapezoid's nodes below the rule's first, t_0 e^(-kh) for k >= 1
    # at weights h t_k, against the four tail nodes t_0 gamma_i at weights
    # t_0 omega_i: a 4-point rule with positive weights inside (0, 1) that
    # integrates t^m, m = 0..7, exactly is that measure's Gauss rule
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        h = mpmath.mpf(numerics._HAMDI_STEP)
        for m in range(8):
            exact = h * mpmath.nsum(lambda k: mpmath.exp(-(m + 1) * k * h), [1, mpmath.inf])
            got = mpmath.fsum(mpmath.mpf(float(w)) * mpmath.mpf(float(g)) ** m
                              for g, w in numerics._HAMDI_TAIL.T)
            assert abs(got - exact) <= 4e-16 * exact, m
    nodes, weights = numerics._HAMDI_TAIL
    assert np.all(weights > 0.0) and np.all((0.0 < nodes) & (nodes < 1.0))


@pytest.mark.parametrize("scale,size,bound", [(0.01, 35, 5e-16), (1.0, 35, 5e-16),
                                              (100.0, 53, 5e-16), (1e6, 90, 5e-16),
                                              (1e10, 127, 5e-16), (1e30, 311, 5e-16),
                                              (1e300, 2798, 2e-15)])
def test_the_rule_holds_every_factor_up_to_its_scale(scale, size, bound):
    # a signal, two faded interferers and a fixed one, each at powers up to
    # the scale the rule was sized to, and the signal alone, against
    # mpmath; the rule starts at the lattice point below ln(0.03 / scale)
    # at every scale up to its 1e300 limit, where the rounding of its 2798
    # terms leaves the signal alone 1.1e-15 off
    mpmath = pytest.importorskip("mpmath")
    nodes, weights = hamdi_rule(scale)
    assert nodes.size == weights.size == size and not nodes.flags.writeable
    top = max(scale, 1.0)
    for snr, b, a in [(top, (top, top), top), (top, (0.0, 1e-3 * top), 0.0),
                      (1e-3, (top, 0.01 * top), 0.01 * top), (0.1 * top, (0.0, 0.0), top),
                      (top, (0.0, 0.0), 0.0)]:
        factors = hamdi_factors(nodes, [[snr], [b[0]], [b[1]]], np.array([a]))
        got = snr * float(np.prod(factors[:, 0], axis=0) @ weights)
        with mpmath.workdps(30):
            r, c = 1 / mpmath.mpf(snr), 1 + mpmath.mpf(a)
            slopes = [mpmath.mpf(v) for v in b if v]

            def integrand(x):
                # in x = ln t, where each factor turns within a few units
                # of its break, over ``got`` so that mpmath's absolute
                # error test is a relative one
                t = mpmath.exp(x)
                return t * mpmath.exp(-c * t) / (got * (t + r) * mpmath.fprod(
                    1 + t * v for v in slopes))
            # e^(-c t) falls to e^-403 over the 6 units past ln(1 / c), and
            # below the lowest break the integrand is of order t / r
            breaks = sorted({mpmath.log(v) for v in (r, 1 / c, *(1 / v for v in slopes))})
            breaks = sorted({breaks[0] - 60, *breaks, *(k - mpmath.log(c) for k in range(1, 7))})
            exact = got * mpmath.quad(integrand, breaks)
        assert abs(got - exact) <= bound * exact, (scale, snr, b, a)


def test_the_rule_is_the_mean_capacity_under_faded_interferers():
    # Hamdi's lemma: for Exp(1) weights w_0, w_1, w_2,
    # E[log2(1 + w_0 a / (1 + w_1 b_1 + w_2 b_2))] = log2(e) faded_capacity(1 / a, b),
    # 2^20 draws per point, 4 standard errors
    rng = np.random.default_rng(31)
    for a, b1, b2 in ((100.0, 0.5, 0.2), (3.0, 2.0, 0.0), (1e4, 40.0, 15.0)):
        w = rng.standard_exponential((3, 1 << 20))
        values = np.log2(1.0 + w[0] * a / (1.0 + w[1] * b1 + w[2] * b2))
        expected = float(faded_capacity(1.0 / a, [b1, b2])) * math.log2(math.e)
        stderr = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean() - expected) <= 4.0 * stderr, (a, b1, b2)


def test_the_factors_of_no_power_are_exactly_one():
    # a static network's interferers (b = 0, a = 0) leave every factor 1,
    # so its capacity is the signal's alone; a signal that keeps no power
    # (u = 0) has a table of ones, which u times gives exactly 0
    nodes, _ = hamdi_rule(100.0)
    factors = hamdi_factors(nodes, [[0.0, 0.0], [0.0, 3.0]], np.array([0.0, 2.0]))
    assert np.all(factors[:, 0] == 1.0) and np.all(factors[1:, 1] < 1.0)
    assert np.all(factors[0, 1] == 1.0)


@pytest.mark.parametrize("scale", [100.0, 1e30])
def test_the_rules_basis_gives_the_factors_of_its_nodes_bit_for_bit(scale):
    # the cached rows (t, 1) of a rule, whole or a window of its columns as
    # the capacity's mid surrogate reads them, in place of the nodes
    nodes, _ = hamdi_rule(scale)
    basis = hamdi_basis(scale)
    assert basis is hamdi_basis(scale) and not basis.flags.writeable
    assert np.array_equal(basis, [nodes, np.ones(nodes.size)])
    rng = np.random.default_rng(19)
    faded, far = rng.exponential(scale, (3, 40)), rng.exponential(scale, 40)
    window = slice(5, nodes.size - 7)
    for columns in (slice(None), window):
        got = hamdi_factors(basis[:, columns], faded, far)
        want = hamdi_factors(nodes[columns], faded, far)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# ---------------------------------------------------------------------------
# adaptive quadrature

def test_integrate_polynomial_exactly():
    # 15-point Gauss-Legendre is exact for polynomials up to degree 29
    val = integrate(lambda x: 5 * x**4, 0.0, 2.0)
    assert val == pytest.approx(32.0, rel=1e-14)


def test_integrate_sine_against_closed_form():
    val = integrate(np.sin, 0.0, 2.5)
    assert val == pytest.approx(1.0 - math.cos(2.5), rel=1e-12)


def test_integrate_sinc_squared_oracle():
    f = lambda x: sinc(x) ** 2
    assert integrate(f, 0.0, 1.0) == pytest.approx(SINC_SQ_0_1, rel=1e-11)
    assert integrate(f, -3.0, 7.0) == pytest.approx(SINC_SQ_M3_7, rel=1e-11)


def test_integrate_refuses_integrands_that_do_not_take_arrays():
    # an integrand is called on an array of nodes and returns one value each
    assert integrate(np.cos, 0.0, 1.0) == pytest.approx(math.sin(1.0), rel=1e-13)
    with pytest.raises(TypeError):
        integrate(math.cos, 0.0, 1.0)
    with pytest.raises(TypeError, match="returned 1 values for 15 nodes"):
        integrate(lambda x: 1.0, 0.0, 1.0)


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


# ---------------------------------------------------------------------------
# the capacity surrogates' exact means

def test_cosine_laplace_matches_mpmath():
    # Phi_M(e^y) = (e^-a I0(a))^M, a = e^y / 2M, as the exact-mean tables
    # take it: Psi_0(s)^M, s = e^y / M (_cosine_power_laplace of order 0),
    # the midpoint rule up to s = 80 and an asymptotic series beyond, up to
    # e^y = 1e300; against mpmath at the s the tables pass, I0 up to s = 80
    # and beyond it the asymptotic sum (A&S 9.7.1) to 40 digits; a few ulp
    # of Psi_0 times M, or, where Phi_M underflows (at 8 paths from e^y =
    # 2e77), within the smallest normal double
    mpmath = pytest.importorskip("mpmath")
    log_scales = np.linspace(math.log(1e-3), math.log(1e300), 241)
    for paths in (1, 8):
        log_s = log_scales - math.log(paths)
        got = numerics._cosine_power_laplace(log_s, 0) ** paths
        assert np.count_nonzero(log_s > math.log(80.0)) > 200
        with mpmath.workdps(40):
            for y, value in zip(log_s, got):
                a = mpmath.exp(mpmath.mpf(float(y))) / 2
                if a <= 40:
                    scaled = mpmath.exp(-a) * mpmath.besseli(0, a)
                else:
                    term = total = mpmath.mpf(1)
                    for k in range(1, 60):
                        term *= mpmath.mpf((2 * k - 1) ** 2) / (8 * k * a)
                        total += term
                    scaled = total / mpmath.sqrt(2 * mpmath.pi * a)
                exact = scaled ** paths
                assert abs(value - exact) <= 2e-14 * exact + np.finfo(float).tiny, (paths, y)


# numerics.SURROGATE_TERMS, the (orders, power) keys of the capacity's
# surrogates, by the names of their means
MEANS = dict(zip(["h", "tau", "upsilon", "omega", "chi", "eta"], SURROGATE_TERMS, strict=True))


def test_reciprocal_mean_at_one_path_is_its_closed_form():
    # m_2 = u^2 cos^2 psi at one path, and E_psi[1 / (1 + b cos^2 psi)] =
    # 1 / sqrt(1 + b), so h_1(c) = E_u[1 / sqrt(1 + c u^2)] = asinh(sqrt c) / sqrt c
    scales = np.geomspace(1e-12, 1e300, 901)
    closed = np.arcsinh(np.sqrt(scales)) / np.sqrt(scales)
    got = surrogate_mean(scales, 1, *MEANS["h"])
    assert np.max(abs(got - closed) / closed) <= 1e-13
    assert surrogate_mean(np.array([0.0, 1e-30, math.inf]), 1).tolist() == [1.0, 1.0, 0.0]
    assert isinstance(surrogate_mean(2.0, 1), float)
    assert surrogate_mean(np.ones((2, 3)), 8).shape == (2, 3)


def _reciprocal_mean_on_a_grid(c: float, paths: int) -> float:
    # an independent route: h_M(c) = int_0^inf e^-w int_0^1 Phi_M(w c u^2) du
    # dw, a trapezoid of step 1/8 in ln w and, in u, a 16-point
    # Gauss-Legendre rule on each of the panels [e^-(k+1), e^-k], k < 60
    log_w = np.arange(math.floor(8.0 * (-50.0 - math.log1p(c))), 37) / 8.0
    nodes, weights = np.polynomial.legendre.leggauss(16)
    edges = np.exp(-np.arange(61.0))
    half = (edges[:-1] - edges[1:])[:, None] / 2.0
    u = (edges[1:, None] + half * (nodes + 1.0)).ravel()
    u_weights = (half * weights).ravel()
    log_s = log_w[:, None] + math.log(c) + 2.0 * np.log(u) - math.log(paths)
    inner = numerics._cosine_power_laplace(log_s, 0) ** paths  # Phi_M(w c u^2)
    w = np.exp(log_w)
    return float(np.sum(w * np.exp(-w) * (inner @ u_weights)) / 8.0)


@pytest.mark.parametrize("paths", [2, 8])
def test_reciprocal_mean_matches_a_two_dimensional_route(paths):
    for c in (1e-3, 1.0, 30.0, 1500.0, 1e6):
        assert surrogate_mean(c, paths) \
            == pytest.approx(_reciprocal_mean_on_a_grid(c, paths), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("paths", [1, 2, 8])
def test_reciprocal_mean_is_the_mean_over_drawn_devices(paths):
    # 2^20 devices of the sampler, m_2 = mean_m z_m^2: at each c the sample
    # mean of 1 / (1 + c m_2) within 4 standard errors of h_M(c)
    rng = np.random.default_rng(1234 + paths)
    second = np.concatenate([np.mean(sample_cell_batch(rng, 1024, 256, CellConfig(paths)) ** 2,
                                     axis=2).ravel() for _ in range(4)])
    assert second.size == 1 << 20
    for c in (1.0, 100.0, 1500.0):
        samples = 1.0 / (1.0 + c * second)
        error = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - surrogate_mean(c, paths)) <= 4.0 * error


def test_cosine_power_laplace_matches_mpmath():
    # s^j Psi_j(s), Psi_j(s) = E[cos^2j psi e^(-s cos^2 psi)]: the midpoint
    # rule up to s = 80 and the asymptotic series beyond, against Bessel
    # forms at 60 digits, which cancel the rounding of the combinations
    mpmath = pytest.importorskip("mpmath")
    scales = np.geomspace(1e-3, 1e12, 61)
    for order in (2, 3):
        got = numerics._cosine_power_laplace(np.log(scales), order)
        with mpmath.workdps(60):
            for scale, value in zip(scales, got):
                a = mpmath.mpf(float(scale)) / 2
                exact = a ** order * 2 ** order * _psi_by_mpmath(mpmath, a, order)
                assert abs(value - exact) <= 4e-15 * exact


# Psi_j(2a) = e^-a (sum_k w_k I_k(a)) / 2^j: E[(1 + cos 2 psi)^j e^(-a cos 2
# psi)] of the Bessel functions' integral forms
_PSI_BESSEL = {2: ((3, 2), (-2, 1), (1, 2)), 3: ((5, 2), (-15, 4), (3, 2), (-1, 4))}


def _psi_by_mpmath(mpmath, a, order):
    return mpmath.exp(-a) * mpmath.fsum(mpmath.mpf(p) / q * mpmath.besseli(k, a) for k, (p, q)
                                        in enumerate(_PSI_BESSEL[order])) / 2 ** order


def _second_order_mean_by_mpmath(c: float, paths: int, order: int) -> float:
    # c^(j-1) E[X S^j], X = m_4 (j = 2) or m_3^2 (j = 3), by mpmath's
    # quadrature of int mu^(j-1) H_j(mu) rho(mu / c) dmu / (c (j-1)!
    # M^(j-2)) with Bessel functions at 30 digits: mu^(j-1) H_j(mu) falls as
    # mu^-5 at 8 paths, so mu beyond 1e6 adds below 1e-24 of the integral,
    # and rho(v) beyond v = 60 below e^-60
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        c = mpmath.mpf(c)

        def integrand(mu):
            a = mu / (2 * paths)
            v = mu / c
            rho = mpmath.exp(-v) - mpmath.sqrt(mpmath.pi * v) * mpmath.erfc(mpmath.sqrt(v))
            return mu ** (order - 1) * _psi_by_mpmath(mpmath, a, order) \
                * (mpmath.exp(-a) * mpmath.besseli(0, a)) ** (paths - 1) * rho
        top = min(60 * c, mpmath.mpf(10) ** 6)
        points = sorted({0, top} | {p * s for p in (1, 10, 100) for s in (1, c) if p * s < top})
        return float(mpmath.quad(integrand, points)
                     / (c * math.factorial(order - 1) * paths ** (order - 2)))


def test_second_order_means_at_one_path_are_their_closed_forms():
    # at one path, tau_1(c) = (1 - 3/2 asinh(sqrt c) / sqrt c + 1/2 / sqrt(1
    # + c)) / c and upsilon_1(c) = 1 / c - 15/8 asinh(sqrt c) / c^(3/2) + 7/8
    # / (c sqrt(1 + c)) + 1/8 / (1 + c)^(3/2), in mpmath at 60 digits, whose
    # terms cancel to c and c^2 at small c
    mpmath = pytest.importorskip("mpmath")
    scales = np.geomspace(1e-12, 1e300, 181)
    with mpmath.workdps(60):
        closed = []
        for c in scales:
            c = mpmath.mpf(float(c))
            root = mpmath.sqrt(c)
            closed.append([float((1 - 1.5 * mpmath.asinh(root) / root
                                  + 0.5 / mpmath.sqrt(1 + c)) / c),
                           float(1 / c - mpmath.mpf(15) / 8 * mpmath.asinh(root) / c ** 1.5
                                 + 7 / (8 * c * mpmath.sqrt(1 + c)) + 1 / (8 * (1 + c) ** 1.5))])
    closed = np.array(closed).T
    for key, exact in zip((MEANS["tau"], MEANS["upsilon"]), closed):
        assert np.max(abs(surrogate_mean(scales, 1, *key) - exact) / exact) <= 1e-14
        assert surrogate_mean(np.array([0.0, math.inf]), 1, *key).tolist() == [0.0, 0.0]
        assert isinstance(surrogate_mean(2.0, 1, *key), float)
        assert surrogate_mean(np.ones((2, 3)), 8, *key).shape == (2, 3)
    # below c = e^-40, c E[m_4] and c^2 E[m_3^2]
    assert surrogate_mean(1e-30, 8, *MEANS["tau"]) == 1e-30 * (3.0 / 40.0)
    assert surrogate_mean(1e-30, 8, *MEANS["upsilon"]) == 1e-30 ** 2 * (5.0 / (112.0 * 8))


@pytest.mark.parametrize("c", [1e-3, 1.0, 50.0, 1e4, 1e300])
def test_second_order_means_at_eight_paths_match_mpmath(c):
    assert surrogate_mean(c, 8, *MEANS["tau"]) \
        == pytest.approx(_second_order_mean_by_mpmath(c, 8, 2), rel=1e-14, abs=0.0)
    assert surrogate_mean(c, 8, *MEANS["upsilon"]) \
        == pytest.approx(_second_order_mean_by_mpmath(c, 8, 3), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("c", [1e-12, 1e-6])
def test_second_order_means_at_eight_paths_meet_their_series(c):
    # tau_M(c) = c E[m_4] - 2 c^2 E[m_4 m_2] + 3 c^3 E[m_4 m_2^2] - ... and
    # upsilon_M(c) = c^2 E[m_3^2] - 3 c^3 E[m_3^2 m_2] + 6 c^4 E[m_3^2 m_2^2]
    # - ..., from the exact monomial means (where mpmath's quadrature of the
    # integral loses digits); the next terms are below 1e-17 of these
    moment = functools.partial(montecarlo._monomial_mean, paths=8)
    with_fractions = Fraction(c)
    tau = sum((-1) ** k * (k + 1) * with_fractions ** (k + 1) * Fraction(moment((4,) + (2,) * k))
              for k in range(3))
    upsilon = sum((-1) ** k * math.comb(k + 2, 2) * with_fractions ** (k + 2)
                  * Fraction(moment((3, 3) + (2,) * k)) for k in range(3))
    assert surrogate_mean(c, 8, *MEANS["tau"]) == pytest.approx(float(tau), rel=1e-14, abs=0.0)
    assert surrogate_mean(c, 8, *MEANS["upsilon"]) \
        == pytest.approx(float(upsilon), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("paths", [1, 2, 8])
def test_second_order_means_are_the_means_over_drawn_devices(paths):
    # 2^20 devices of the sampler: at each c the sample means of c m_4 S^2
    # and c^2 m_3^2 S^3, S = 1 / (1 + c m_2), within 4 standard errors of
    # tau_M(c) and upsilon_M(c)
    rng = np.random.default_rng(4321 + paths)
    shift = np.concatenate([sample_cell_batch(rng, 1024, 256, CellConfig(paths)).reshape(-1, paths)
                            for _ in range(4)])
    assert len(shift) == 1 << 20
    second, third, fourth = (np.mean(shift ** p, axis=1) for p in (2, 3, 4))
    for c in (1.0, 100.0, 1500.0):
        reciprocal = 1.0 / (1.0 + c * second)
        for samples, key in ((c * fourth * reciprocal ** 2, MEANS["tau"]),
                             ((c * third * reciprocal) ** 2 * reciprocal, MEANS["upsilon"])):
            error = samples.std(ddof=1) / math.sqrt(samples.size)
            assert abs(samples.mean() - surrogate_mean(c, paths, *key)) <= 4.0 * error


# the third-order surrogates' columns W = c m_6 S^2, X = c^2 m_4^2 S^3 and
# Y = c^4 m_3^4 S^5: each mean's monomial orders and power j of S
THIRD_ORDER_IDS = ["omega", "chi", "eta"]
THIRD_ORDER = [MEANS[name] for name in THIRD_ORDER_IDS]


def _one_path_mean_by_mpmath(mpmath, c: float, degree: int, power: int) -> float:
    # E[c^(j-1) z^P / (1 + c z^2)^j] at one path, z = u cos psi, whose |z|
    # has the density (2 / pi) acosh(1 / z) on (0, 1): mpmath's quadrature
    # at 30 digits, split around z = 1 / sqrt(c) (within 1e-25 of tau_1's
    # closed form from c = 1e-3 to 1e12)
    with mpmath.workdps(30):
        c = mpmath.mpf(c)
        root = 1 / mpmath.sqrt(c)
        points = sorted({mpmath.mpf(0), mpmath.mpf(1)}
                        | {root * k for k in (1e-2, 1e-1, 1, 10, 100) if root * k < 1})
        return float(2 / mpmath.pi * mpmath.quad(
            lambda z: c ** (power - 1) * z ** degree / (1 + c * z * z) ** power
            * mpmath.acosh(1 / z), points))


@pytest.mark.parametrize("orders,power", THIRD_ORDER, ids=THIRD_ORDER_IDS)
def test_third_order_means_at_one_path_match_mpmath(orders, power):
    # from c = 1e-3 to 1e12 against mpmath; beyond, c^(j-1) m_2^(j+1) S^j =
    # (z^2 / c) (1 - S)^j at one path, whose mean is E[z^2] / c = 1 / 6c
    # less at most j E[z^2 S] / c <= j / c^2, so from c = 1e40 up to 1e300
    # the mean is 1 / 6c to rounding
    mpmath = pytest.importorskip("mpmath")
    scales = np.geomspace(1e-3, 1e12, 31)
    exact = np.array([_one_path_mean_by_mpmath(mpmath, c, sum(orders), power) for c in scales])
    assert np.max(abs(surrogate_mean(scales, 1, orders, power) - exact) / exact) <= 1e-13
    large = np.array([1e40, 1e100, 1e200, 1e300])
    assert np.max(abs(surrogate_mean(large, 1, orders, power) * 6.0 * large - 1.0)) <= 1e-13


@pytest.mark.parametrize("orders,power", MEANS.values(), ids=MEANS.keys())
def test_surrogate_means_keep_their_limits_and_shapes(orders, power):
    # below c = e^-40, c^(j-1) E[X], E[X] the exact monomial mean (1, 3/40,
    # 5/112, 5/112, 35/1152 and 231/13312 at one path): so 1 at c = 0 for
    # h_M and 0 for the others; 0 at inf; a float for a float, an array of
    # the shape of an array, and each value the same bits as alone
    assert numerics._monomial_mean(orders, 1) \
        == {(): 1.0, (4,): 3 / 40, (3, 3): 5 / 112, (6,): 5 / 112, (4, 4): 35 / 1152,
            (3, 3, 3, 3): 231 / 13312}[orders]

    def mean(c, paths):
        return surrogate_mean(c, paths, orders, power)
    for paths in (1, 8):
        below = numerics._monomial_mean(orders, paths)
        assert mean(1e-30, paths) == 1e-30 ** (power - 1) * below
        assert mean(np.array([0.0, math.inf]), paths).tolist() == [0.0 ** (power - 1) * below, 0.0]
    scales = np.concatenate([[0.0, 1e-30], np.geomspace(1e-17, 1e300, 97), [math.inf]])
    assert mean(scales, 8).tolist() == [mean(float(c), 8) for c in scales]
    assert isinstance(mean(2.0, 8), float)
    assert mean(np.ones((2, 3)), 8).shape == (2, 3)


@pytest.mark.parametrize("c", [1e-12, 1e-6])
@pytest.mark.parametrize("orders,power", THIRD_ORDER, ids=THIRD_ORDER_IDS)
def test_third_order_means_at_eight_paths_meet_their_series(orders, power, c):
    # E[c^(j-1) X S^j] = sum_k (-1)^k C(k + j - 1, j - 1) c^(j-1+k) E[X
    # m_2^k], from the exact monomial means; the next terms are below 1e-17
    # of these, and the table's patterns of equal path indices at 8 paths
    # must give them
    moment = functools.partial(montecarlo._monomial_mean, paths=8)
    with_fractions = Fraction(c)
    series = sum((-1) ** k * math.comb(k + power - 1, power - 1)
                 * with_fractions ** (power - 1 + k) * Fraction(moment(orders + (2,) * k))
                 for k in range(3))
    assert surrogate_mean(c, 8, orders, power) == pytest.approx(float(series), rel=1e-14, abs=0.0)


def test_third_order_means_are_the_means_over_drawn_devices():
    # 2^20 devices of the sampler at 8 paths: at each c the sample means of
    # c m_6 S^2, c^2 m_4^2 S^3 and c^4 m_3^4 S^5, S = 1 / (1 + c m_2), within
    # 5 standard errors of omega_M(c), chi_M(c) and eta_M(c)
    rng = np.random.default_rng(5678)
    shift = np.concatenate([sample_cell_batch(rng, 1024, 256, CellConfig(8)).reshape(-1, 8)
                            for _ in range(4)])
    assert len(shift) == 1 << 20
    second, third, fourth, sixth = (np.mean(shift ** p, axis=1) for p in (2, 3, 4, 6))
    for c in (1.0, 100.0, 1500.0):
        reciprocal = 1.0 / (1.0 + c * second)
        for samples, key in zip((c * sixth * reciprocal ** 2,
                                 (c * fourth * reciprocal) ** 2 * reciprocal,
                                 (c * third * reciprocal) ** 4 * reciprocal), THIRD_ORDER):
            error = samples.std(ddof=1) / math.sqrt(samples.size)
            assert abs(samples.mean() - surrogate_mean(c, 8, *key)) <= 5.0 * error


def test_odd_power_scale_matches_mpmath():
    # kappa(x) = E[o(x z)^2] / E[(2 (x z)^3 / q^3)^2], o the kernel's odd
    # part at the gap q, by mpmath's 2-D quadrature of o's plain form; 1 at
    # x = 0 and an array of spans gives each span's bits alone, at the gaps
    # of the capacity's +-1 and +-2 neighbours
    spans = [0.0, 1e-200, 0.06, 0.6, 1.0, 3.0]
    for q in (1, 2):
        assert odd_power_scale(np.array(spans), q).tolist() \
            == [odd_power_scale(x, q) for x in spans]
    assert odd_power_scale(0.0, 1) == odd_power_scale(1e-200, 1) == 1.0
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(20):
        for x, q in ((0.6, 1), (3.0, 1), (0.6, 2)):
            x = mpmath.mpf(x)

            def odd(u, psi):
                y = x * u * mpmath.cos(psi)
                return ((mpmath.sincpi(q + y) ** 2 - mpmath.sincpi(q - y) ** 2) / 2) ** 2
            exact = mpmath.quad(odd, [0, 1], [0, mpmath.pi / 2]) * 2 / mpmath.pi \
                / (4 * x ** 6 * mpmath.mpf(5) / 112 / q ** 6)
            assert odd_power_scale(float(x), q) == pytest.approx(float(exact), rel=1e-13)


def test_doppler_power_scale_matches_mpmath():
    # an array of spans gives each span's bits alone
    spans = [0.0, 0.012, 0.06, 0.6, 1.2, 4.0]
    assert doppler_power_scale(np.array(spans)).tolist() == [doppler_power_scale(x) for x in spans]
    # k(x) = E[sin^2(pi x z)] / (pi^2 x^2 / 6) with E_u[sin^2(pi x u c)] =
    # (1 - sinc(2 x c)) / 2, averaged over psi in mpmath
    mpmath = pytest.importorskip("mpmath")
    assert doppler_power_scale(0.0) == pytest.approx(1.0, rel=1e-15)
    with mpmath.workdps(30):
        for x in (0.01, 0.12, 0.6, 1.2, 4.0):
            mean = mpmath.quad(lambda psi: (1 - mpmath.sincpi(2 * x * mpmath.cos(psi))) / 2,
                               [0, mpmath.pi / 2]) * 2 / mpmath.pi
            exact = mean * 6 / (mpmath.pi * x) ** 2
            assert doppler_power_scale(x) == pytest.approx(float(exact), rel=1e-13)
