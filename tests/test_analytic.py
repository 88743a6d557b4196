import itertools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catamp import amplify, analytic, check, fock, optimize, states
from catamp.analytic import Scheme
from catamp.errors import DivergentGainError
from catamp.states import HesSpec, ScsSpec

from conftest import (cat_column, coherent_fidelity, coherent_qfi, create, destroy,
                      mp_scs_fidelity, series_scs_fidelity, series_scs_qfi, var4)
from oracles import root_sum


def brute_fidelity(alpha, g, d, k, scheme):
    """Amplified-versus-target overlap from dense Fock arithmetic only."""
    n = 120
    mats = {"add": create(n), "subtract": destroy(n)}
    col = cat_column(alpha, d, k, n)
    word = analytic.scheme_word(scheme)
    for op in reversed(word):
        col = mats[op] @ col
    col /= np.linalg.norm(col)
    tk = analytic.target_index(k, d, scheme)
    return abs(np.vdot(cat_column(g * alpha, d, tk, n), col)) ** 2


def brute_qfi(alpha, d, k, scheme):
    n = 120
    col = cat_column(alpha, d, k, n)
    if scheme is not None:
        mats = {"add": create(n), "subtract": destroy(n)}
        for op in reversed(analytic.scheme_word(scheme)):
            col = mats[op] @ col
        col /= np.linalg.norm(col)
    return var4(col)


def test_hes_fidelity_spot_values():
    assert abs(analytic.hes_fidelity(1.0, 1.0, Scheme.AADAG) - 0.8) < 1e-14
    want = (16.0 / 7.0) * math.exp(-1.0)
    assert abs(analytic.hes_fidelity(1.0, 2.0, Scheme.ADAG2) - want) < 1e-14
    assert analytic.hes_fidelity(0.0, 1.7, Scheme.AADAG) == 1.0


def test_hes_gain_spot_values():
    assert abs(analytic.hes_gain(1.0, Scheme.AADAG) - math.sqrt(2.0)) < 1e-12
    assert abs(analytic.hes_gain(1.0, Scheme.ADAG2) - 2.0) < 1e-12


def test_hes_gain_stationarity():
    h = 1e-6
    for alpha in (0.3, 0.9, 1.7, 2.5):
        for s in Scheme:
            g = analytic.hes_gain(alpha, s)
            slope = (
                analytic.hes_fidelity(alpha, g + h, s) - analytic.hes_fidelity(alpha, g - h, s)
            ) / (2 * h)
            assert abs(slope) < 1e-6, (alpha, s)


def test_hes_gain_large_amplitude_limit():
    assert abs(analytic.hes_gain(50.0, Scheme.AADAG) - 1.0) < 1e-3
    assert abs(analytic.hes_gain(50.0, Scheme.ADAG2) - 1.0) < 1e-3


def test_hes_gain_divergence_signal():
    with pytest.raises(DivergentGainError):
        analytic.hes_gain(0.0, Scheme.ADAG2)
    # the add-then-subtract gain stays finite in the same limit
    assert abs(analytic.hes_gain(0.0, Scheme.AADAG) - 2.0) < 1e-12


def test_hes_qfi_spot_values():
    assert analytic.hes_qfi(1.0) == 4.0
    assert abs(analytic.hes_qfi(1.0, Scheme.AADAG) - 5.6) < 1e-14
    assert abs(analytic.hes_qfi(1.0, Scheme.ADAG2) - 276.0 / 49.0) < 1e-14


def test_hes_fidelity_matches_bruteforce():
    for alpha in (0.4, 1.0, 2.1):
        for g in (0.8, 1.2, 1.9):
            for s in Scheme:
                closed = analytic.hes_fidelity(alpha, g, s)
                brute = brute_fidelity(alpha, g, 1, 0, s)
                assert abs(closed - brute) < 1e-8


def test_hes_closed_forms_reject_negative_alpha():
    with pytest.raises(ValueError):
        analytic.hes_fidelity(-1.0, 1.2, Scheme.AADAG)
    for s in (None, *Scheme):
        with pytest.raises(ValueError):
            analytic.hes_qfi(-1.0, s)


def test_hes_qfi_rejects_infinite_alpha():
    # as every other closed form does, the unamplified one included
    for s in (None, *Scheme):
        with pytest.raises(ValueError):
            analytic.hes_qfi(math.inf, s)


def test_hes_qfi_matches_bruteforce():
    for alpha in (0.4, 1.0, 2.1):
        for s in Scheme:
            closed = analytic.hes_qfi(alpha, s)
            brute = brute_qfi(alpha, 1, 0, s)
            assert abs(closed - brute) <= 1e-8 * max(1.0, closed)


def test_hes_qfi_bruteforce_on_hybrid_state():
    # the hybrid two-mode state gives the same photon variance as the coherent one
    alpha, d, k = 1.0, 3, 1
    trunc = fock.auto_trunc(alpha, additions=2)
    amped, _ = amplify.apply_word(states.hes_state(HesSpec(alpha, d, k), trunc), amplify.AADAG)
    _, var = fock.moments(amped)
    assert abs(analytic.hes_qfi(alpha, Scheme.AADAG) - 4 * var) < 1e-8


def test_scs_fidelity_reduces_to_hes_at_d1():
    for alpha in (0.4, 1.1, 2.3):
        for g in (0.8, 1.3, 2.0):
            for s in Scheme:
                got = analytic.scs_fidelity(alpha, g, 1, 0, s)
                want = coherent_fidelity(alpha, g, s.value)
                assert abs(got - want) < 1e-12
                assert analytic.hes_fidelity(alpha, g, s) == got


def test_scs_fidelity_zero_amplitude_limits():
    assert analytic.scs_fidelity(0.0, 1.3, 4, 2, Scheme.AADAG) == 1.0
    assert analytic.scs_fidelity(0.0, 1.3, 4, 1, Scheme.ADAG2) == 1.0
    assert analytic.scs_fidelity(0.0, 1.3, 4, 2, Scheme.ADAG2) == 0.0  # k = d-2
    assert analytic.scs_fidelity(0.0, 1.3, 4, 3, Scheme.ADAG2) == 0.0  # k = d-1


def test_scs_fidelity_matches_bruteforce_grid():
    for d in (2, 3, 4):
        for k in range(d):
            for alpha in (0.5, 1.0, 2.0):
                for g in (0.8, 1.4, 2.0):
                    for s in Scheme:
                        closed = analytic.scs_fidelity(alpha, g, d, k, s)
                        brute = brute_fidelity(alpha, g, d, k, s)
                        assert abs(closed - brute) < 1e-8, (d, k, alpha, g, s)


def test_scs_fidelity_matches_bruteforce_small_amplitude():
    # below the standard grid the root-of-unity sums cancel to noise; the
    # series evaluation must keep agreeing with the Fock route, large gain too
    for alpha in (0.05, 0.1, 0.2):
        for (d, k) in ((5, 4), (4, 3), (3, 2)):
            for g in (1.0, 4.0, 12.0):
                for s in Scheme:
                    closed = analytic.scs_fidelity(alpha, g, d, k, s)
                    brute = brute_fidelity(alpha, g, d, k, s)
                    assert abs(closed - brute) < 1e-9, (d, k, alpha, g, s)


def test_scs_fidelity_accepts_gain_arrays():
    g = np.array([0.5, 1.0, 2.0, 8.0])
    vals = analytic.scs_fidelity(1.0, g, 3, 1, Scheme.ADAG2)
    assert vals.shape == g.shape
    for i, gi in enumerate(g):
        assert abs(vals[i] - analytic.scs_fidelity(1.0, float(gi), 3, 1, Scheme.ADAG2)) < 1e-14


def test_scs_fidelity_stable_at_extreme_gain():
    # large gain drives the naive sums past double-precision range
    val = analytic.scs_fidelity(3.0, 20.0, 5, 2, Scheme.ADAG2)
    assert 0.0 <= val < 1e-100


@pytest.mark.parametrize("g", [1e-80, 1e-100, 1e-300])
@pytest.mark.parametrize("s", list(Scheme))
def test_scs_fidelity_raises_where_its_sums_underflow(g, s):
    # g^2 alpha^2 = 2.5e-161, 2.5e-201 or 0: S_2 and S_4 of it are subnormal or 0,
    # and F was 1.0058 (a a-dagger at 1e-80) or 0/0.  A scalar gain takes log class
    # sums, which are finite until g^2 alpha^2 itself underflows
    if g > 1e-200:
        want = mp_scs_fidelity(0.5, g, 5, 2, s.value)
        assert abs(analytic.scs_fidelity(0.5, g, 5, 2, s) - want) <= 1e-12 * want
    else:
        with pytest.raises(ArithmeticError, match=f"gain {g:g}"):
            analytic.scs_fidelity(0.5, g, 5, 2, s)
    with pytest.raises(ArithmeticError, match=f"gain {g:g}"):
        analytic.scs_fidelity(0.5, np.array([1.0, g]), 5, 2, s)


@pytest.mark.parametrize("s", list(Scheme))
def test_array_fidelity_is_zero_at_huge_gain(s):
    # num overflowed to inf at g = 1e80 (0 inf = nan, with a RuntimeWarning), and from
    # g alpha > 1.34e154 on S_j raised on its own argument, g^2 alpha^2 = inf
    one = analytic.scs_fidelity(1.0, np.array([1.0]), 3, 0, s)
    for g in (1e80, 1e155, 1e300):
        got = analytic.scs_fidelity(1.0, np.array([1.0, g]), 3, 0, s)
        assert got[0] == one[0] and got[1] == 0.0


@pytest.mark.parametrize("s", list(Scheme))
def test_log_class_sums_raise_where_g2_alpha2_overflows(s):
    # g^2 alpha^2 = inf made the log sums and the class mean inf, so ln F was inf - inf:
    # a scalar F read nan
    for f in (analytic.scs_slope_newton, analytic.scs_fidelity):
        with pytest.raises(ArithmeticError, match=r"overflow at alpha 1, gain 1e\+155"):
            f(1.0, 1e155, 3, 0, s)
    assert analytic.scs_fidelity(1.0, 1e150, 3, 0, s) == 0.0  # z = 1e300: F underflows


@pytest.mark.parametrize("s", list(Scheme))
def test_array_fidelity_blocks_give_each_gain_its_own_value(s):
    # unsorted gains over three full blocks and 7 points, each block holding gains kept
    # and gains past the envelope cut |g - 1| >= sqrt(746) / alpha (9.1 at alpha 3), and
    # class sums on both sides of the skip bound: every value is bit for bit the value of its
    # gain alone, in a 2-D array too; an empty array gives an empty result
    n = 3 * analytic._BLOCK + 7
    g = np.random.default_rng(5).permutation(np.geomspace(1e-3, 40.0, n))
    pick = np.r_[0:n:64, n - 7:n]
    for d in (4, 7):
        got = analytic.scs_fidelity(3.0, g, d, d - 1, s)
        assert got.shape == g.shape and (got[pick] == 0.0).any() and (got[pick] > 0.0).any()
        want = [analytic.scs_fidelity(3.0, g[i:i + 1], d, d - 1, s)[0] for i in pick]
        assert np.array_equal(got[pick], want), d
        grid = analytic.scs_fidelity(3.0, g[-12:].reshape(3, 4), d, d - 1, s)
        assert np.array_equal(grid, got[-12:].reshape(3, 4)), d
        assert analytic.scs_fidelity(3.0, np.empty((0, 2)), d, d - 1, s).shape == (0, 2)


def test_slope_on_no_gains_is_empty():
    # an empty gain array, which has no least or greatest gain, gives an empty slope
    for d in (1, 4):
        for s in Scheme:
            assert analytic.scs_slope(1.3, np.empty((0, 3)), d, d - 1, s).shape == (0, 3)


def test_array_fidelity_names_the_first_lost_gain_in_flat_order():
    # the first lost gain sits in the second block, a later one in the third
    g = np.ones((3, analytic._BLOCK))
    g[1, 5], g[2, 0] = 1e-80, 1e-100
    with pytest.raises(ArithmeticError, match=r"alpha 0.5, gain 1e-80$"):
        analytic.scs_fidelity(0.5, g, 5, 2, "adag2")


@pytest.mark.parametrize("s", list(Scheme))
def test_array_fidelity_where_alpha_squared_underflows(s):
    # alpha = 1e-170 makes alpha^2 = 0, so no gain is past the envelope cut: only the
    # a a-dagger F at k = 0 has sums that stay normal (F = 1), every other one is lost
    g = np.array([0.5, 1.0, 2.0])
    for k in range(3):
        if k == 0 and s is Scheme.AADAG:
            assert np.array_equal(analytic.scs_fidelity(1e-170, g, 3, k, s), np.ones(3))
        else:
            with pytest.raises(ArithmeticError, match="alpha 1e-170, gain 0.5"):
                analytic.scs_fidelity(1e-170, g, 3, k, s)


@pytest.mark.parametrize("s", list(Scheme))
def test_scalar_fidelity_at_tiny_gain_matches_50_digit_class_sums(s):
    # the root-of-unity route raised on 121 of these 216 cells, where a class sum
    # left the normal doubles (54 of 72 at g = 1e-80 and at 1e-150, 13 at 1e-20)
    for d in (1, 2, 5, 8, 12):
        for k in sorted({0, d // 2, d - 1}):
            for alpha in (0.05, 0.5, 2.0):
                for g in (1e-20, 1e-80, 1e-150):
                    got = analytic.scs_fidelity(alpha, g, d, k, s)
                    want = mp_scs_fidelity(alpha, g, d, k, s.value)
                    # relative where F >= 1e-3 (worst seen 6.5e-13), absolute below
                    assert abs(got - want) <= 1e-12 * max(want, 1e-3), (d, k, alpha, g, got, want)
    # g alpha = 1e-100: F ~ (g alpha)^4 underflows to 0 under double addition
    assert analytic.hes_fidelity(1e-100, 1.0, s) == (0.0 if s is Scheme.ADAG2 else 1.0)


@pytest.mark.parametrize("s", list(Scheme))
def test_log_class_sums_raise_where_an_argument_is_subnormal(s):
    # g^2 alpha^2 = 2.5e-321 or 2.5e-323 (class k + l mod 5 = 2 or 4, lowest member > 0)
    # has lost digits, and so has its c ln z: a a-dagger F read 1.0000195 and 1.024,
    # where the 50-digit value is 0.99999724
    for g in (1e-160, 1e-161):
        for f in (analytic.scs_slope_newton, analytic.scs_fidelity):
            with pytest.raises(ArithmeticError, match=f"alpha 0.5, gain {g:g}"):
                f(0.5, g, 5, 2, s)
    # alpha^2 = 1e-320 in class k = 2, with g alpha^2 and g^2 alpha^2 normal
    for f in (analytic.scs_slope_newton, analytic.scs_fidelity):
        with pytest.raises(ArithmeticError, match="alpha 1e-160, gain 1e"):
            f(1e-160, 1e100, 5, 2, s)
    with pytest.raises(ArithmeticError, match="alpha 1e-160"):
        analytic.scs_log_norm(1e-160, 5, 2, s)
    # lowest member 0 (k = 0, or d = 1): no c ln x arises, and the values stay
    log_f0 = sum(math.log(1 + i) for i in amplify.rises(analytic.scheme_word(s))[1])
    assert analytic.scs_log_norm(1e-160, 5, 0, s) == log_f0
    assert math.isfinite(analytic.scs_slope_newton(0.5, 1e-161, 1, 0, s)[2])


@pytest.mark.parametrize("s", list(Scheme))
def test_scalar_fidelity_takes_no_root_of_unity_sum(monkeypatch, s):
    def raiser(*args):
        raise AssertionError("root-of-unity sum on a scalar gain")

    monkeypatch.setattr(amplify, "class_poly", raiser)
    for d in range(1, 9):
        for k in range(d):
            assert 0.0 < analytic.scs_fidelity(1.1, 1.3, d, k, s) <= 1.0
    assert 0.0 < analytic.hes_fidelity(1.1, 1.3, s) <= 1.0


@pytest.mark.parametrize("g", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_gain_closed_forms_reject_non_finite_or_non_positive_gains(g):
    # the slope and its Newton step returned nan there, at inf with a RuntimeWarning
    for gains in (g, np.array([1.0, g])):
        for f in (analytic.scs_fidelity, analytic.scs_slope):
            with pytest.raises(ValueError, match="gain must be finite and positive"):
                f(1.0, gains, 3, 1, "aadag")
    with pytest.raises(ValueError, match="gain must be finite and positive"):
        analytic.scs_slope_newton(1.0, g, 3, 1, "aadag")


@pytest.mark.parametrize("s", list(Scheme))
def test_qfi_and_log_norm_where_alpha_squared_underflows(s):
    # alpha = 1e-200 makes alpha^2 = 0: both were nan at d >= 2, and so was the Newton
    # step's ln F.  The QFI takes its number-state limit; the log norm is ln f(0)^2 at
    # k = 0 and -inf above, and the Newton step raises as the fidelity does
    log_f0 = sum(math.log(1 + i) for i in amplify.rises(analytic.scheme_word(s))[1])
    for d in (1, 2, 3, 5):
        for k in range(d):
            assert analytic.scs_qfi(1e-200, d, k, s) == 0.0
            assert analytic.scs_qfi(1e-200, d, k) == 0.0
            with pytest.raises(ArithmeticError, match="alpha 1e-200, gain 1"):
                analytic.scs_slope_newton(1e-200, 1.0, d, k, s)
        assert abs(analytic.scs_log_norm(1e-200, d, 0, s) - log_f0) <= 1e-15
        for k in range(1, d):
            with pytest.raises(ArithmeticError, match="alpha 1e-200"):
                analytic.scs_log_norm(1e-200, d, k, s)


@pytest.mark.parametrize("s", [*Scheme, ("add",), ("subtract", "add", "add")])
def test_array_slope_where_alpha_squared_underflows_is_the_scalar_limit(s):
    # alpha^2 = 0 leaves each class its lowest member: the gain scan formed 0 ln 0 = nan
    # there on every point, where the scalar walk has its limit (mean and variance 0)
    grid = np.linspace(optimize.GAIN_LO, optimize.GAIN_HI, optimize.SLOPE_GRID)
    rises = amplify.rises(analytic.scheme_word(s))[1]
    for d in (2, 3, 5, 8):
        for k in range(d):
            scan = analytic.scs_slope(1e-200, grid, d, k, s)
            want = [analytic.scs_slope(1e-200, g, d, k, s) for g in grid.tolist()]
            assert np.array_equal(scan, want), (d, k)
        for j in range(d):
            want = analytic._class_moments(j, 0.0, d, rises)
            assert want[:2] == (0.0, 0.0)
            got = analytic._class_mean(j, np.zeros(4), d, rises)
            assert np.array_equal(got, np.full(4, want[0])), (d, j)
    assert analytic.scs_slope(1e-200, 1.0, 3, 1, "adag2") == 6.0


def test_scs_qfi_reduces_to_coherent_at_d1():
    for alpha in (0.01, 0.5, 1.2, 2.4):
        assert abs(analytic.scs_qfi(alpha, 1, 0) - 4 * alpha * alpha) <= 1e-13 * 4 * alpha * alpha
        for s in Scheme:
            want = coherent_qfi(alpha, s.value)
            assert abs(analytic.scs_qfi(alpha, 1, 0, s) - want) <= 1e-13 * want
            assert analytic.hes_qfi(alpha, s) == analytic.scs_qfi(alpha, 1, 0, s)


def test_scs_qfi_zero_amplitude():
    assert analytic.scs_qfi(0.0, 4, 2) == 0.0
    assert analytic.scs_qfi(0.0, 4, 2, Scheme.AADAG) == 0.0


def test_scs_qfi_matches_bruteforce_grid():
    for d in (2, 3, 5):
        for k in range(d):
            for alpha in (0.5, 1.0, 2.2):
                for s in (None, Scheme.AADAG, Scheme.ADAG2):
                    closed = analytic.scs_qfi(alpha, d, k, s)
                    brute = brute_qfi(alpha, d, k, s)
                    assert abs(closed - brute) <= 1e-8 * max(1.0, abs(closed)), (d, k, alpha, s)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(alpha=st.floats(1e-3, 8.0), d=st.integers(1, 12), data=st.data())
def test_scs_qfi_matches_high_precision_series(alpha, d, data):
    k = data.draw(st.integers(0, d - 1))
    s = data.draw(st.sampled_from([None, *Scheme]))
    got = analytic.scs_qfi(alpha, d, k, s)
    want = series_scs_qfi(alpha, d, k, None if s is None else s.value)
    assert got > 0
    assert abs(got - want) <= 1e-12 * want, (got, want)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(alpha=st.floats(0.05, 3.0), d=st.integers(1, 12), data=st.data())
def test_scs_fidelity_matches_positive_series(alpha, d, data):
    # small x and high j, where the root-of-unity form of a class sum cancels (worst
    # from d = 6 on), take the positive series, or F would drift off (and above 1)
    k = data.draw(st.integers(0, d - 1))
    s = data.draw(st.sampled_from(list(Scheme)))
    # from g = 1e-6 on, g^2 alpha^2 keeps S_k clear of underflow at every k <= 11
    g = np.array(data.draw(st.lists(st.floats(1e-6, 20.0), min_size=1, max_size=32)))
    got = analytic.scs_fidelity(alpha, g, d, k, s)
    want = series_scs_fidelity(alpha, g, d, k, s.value)
    assert np.all(got <= 1.0 + 1e-13), got.max() - 1.0
    big = want >= 1e-3
    assert np.all(np.abs(got - want)[big] <= 1e-12 * want[big]), (got, want)


@pytest.mark.parametrize("alpha, d, k", [(0.2, 24, 20), (0.3, 30, 29)])
def test_scs_fidelity_matches_positive_series_past_d12(alpha, d, k):
    # the root-of-unity sums read F = 1 + 1.48e-13 and 1 + 1.96e-13 on these cells,
    # past the d <= 12 of the property test above
    g = np.geomspace(1e-3, 1.0, 2000)
    got = analytic.scs_fidelity(alpha, g, d, k, Scheme.AADAG)
    want = series_scs_fidelity(alpha, g, d, k, "aadag")
    assert got.max() <= 1.0 + 1e-13, got.max() - 1.0
    big = want >= 1e-3
    assert np.all(np.abs(got - want)[big] <= 1e-12 * want[big])


@pytest.mark.parametrize("alpha, d, k", [(0.2, 24, 20), (0.3, 30, 29), (1.3, 5, 2), (2.7, 8, 3)])
@pytest.mark.parametrize("s", ["aadag", "adag2"])
def test_positive_series_oracle_holds_to_50_digit_class_sums(alpha, d, k, s):
    # the oracle walks each class by ratios out from its member nearest x, and the sums'
    # powers and factorials meet before any log: where every class peaks at its lowest
    # member they cancel exactly (log-space terms m ln x - ln m! were 1.1e-13 off there).
    # F >= 1e-3, as in every test that uses it
    for g in (1e-3, 0.03, 0.5, 1.0, 1.7):
        want = mp_scs_fidelity(alpha, g, d, k, s)
        if want >= 1e-3:
            assert abs(series_scs_fidelity(alpha, g, d, k, s)[0] - want) <= 1e-14 * want, g


@pytest.mark.parametrize("g", [0.03, 1.0])
def test_positive_series_oracle_takes_unequal_class_powers_correctly_rounded(g):
    # a-dagger^2 at alpha 0.3, d 30, k 29: the target class (1) is not the overlap's
    # (29), so the powers g^60 (a^2)^30 are left over; taken as exp(n ln x) they
    # were 3.3e-14 (g 0.03) and 1.7e-14 (g 1) off 50 digits
    want = mp_scs_fidelity(0.3, g, 30, 29, "adag2")
    assert abs(series_scs_fidelity(0.3, g, 30, 29, "adag2")[0] - want) <= 1e-14 * want


@settings(max_examples=60, deadline=None, derandomize=True)
@given(alpha=st.floats(0.05, 3.0), g=st.floats(0.05, 5.0), d=st.integers(1, 12),
       s=st.sampled_from([*Scheme, ("add",), ("add",) * 3, ("subtract", "add", "add")]),
       data=st.data())
def test_closed_forms_match_the_fock_oracles_on_random_cells(alpha, g, d, s, data):
    k = data.draw(st.integers(0, d - 1))
    closed = analytic.scs_fidelity(alpha, g, d, k, s)
    if closed >= 1e-3:
        brute = check.fidelity(ScsSpec(alpha, d, k), g, s)
        assert abs(closed - brute) <= 1e-12 * closed, (closed, brute)
    closed = analytic.scs_qfi(alpha, d, k, s)
    brute = check.qfi(ScsSpec(alpha, d, k), s)
    assert abs(closed - brute) <= 1e-10 * closed, (closed, brute)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(alpha=st.floats(0.05, 3.0), g=st.floats(0.05, 5.0), d=st.integers(1, 12),
       s=st.sampled_from([*Scheme, ("add",), ("add",) * 3, ("subtract", "add", "add")]),
       data=st.data())
def test_scalar_fidelity_matches_the_array_route(alpha, g, d, s, data):
    # two closed forms of F: log class sums at a scalar gain, ``class_poly`` on an array
    k = data.draw(st.integers(0, d - 1))
    scalar = analytic.scs_fidelity(alpha, g, d, k, s)
    array = analytic.scs_fidelity(alpha, np.array([g]), d, k, s)[0]
    if array >= 1e-3:
        assert abs(scalar - array) <= 1e-12 * array, (scalar, array)


def test_scs_qfi_last_qudit_index_at_d8():
    # the root-of-unity form returned 1.36e-7 here: 4 (second + mean) - 4 mean^2
    # cancelled at mean ~ 7 on S_j sums 7e-10 off
    got = analytic.scs_qfi(0.71, 8, 7)
    assert abs(got - 4.11438066233e-9) <= 1e-11 * got
    assert abs(got - series_scs_qfi(0.71, 8, 7)) <= 1e-12 * got


@pytest.mark.parametrize("k", range(4))
def test_qfi_ratio_small_amplitude_limit(k):
    # as alpha -> 0 only |k> and |k + d> remain, and Var(n) -> d^2 x^d k!/(k+d)!
    # times c(k + d)/c(k); the ratio of the two schemes' c tends to this
    d = 8
    want = (k + d + 1) * (k + 2) / ((k + 1) * (k + d + 2))
    assert abs(analytic.qfi_ratio(0.05, d, k) - want) <= 1e-10


def test_qfi_ratio_hes_landmarks():
    assert abs(analytic.qfi_ratio(1e-3) - 4.0 / 3.0) < 1e-3
    assert abs(analytic.qfi_ratio(0.45) - 1.11) < 0.01
    assert abs(analytic.qfi_ratio(1.0) - (28.0 / 5.0) / (276.0 / 49.0)) < 1e-12


def test_qfi_ratio_scs_needs_k():
    with pytest.raises(ValueError):
        analytic.qfi_ratio(1.0, d=3)


def test_normal_ordering_identities_hold():
    report = analytic.verify_normal_ordering_identities(24)
    assert set(report) == {
        "sub_add3_sub3_add",
        "sub_add2_sub2_add",
        "sub2_add2_sub2_add2",
        "sub2_add_sub_add2",
    }
    for name, dev in report.items():
        assert dev <= 1e-9, name


def test_normal_ordering_check_reads_the_library_falling_factorials(monkeypatch):
    # the right sides come from amplify.falling: one perturbed c_0 adds the identity
    falling = amplify.falling

    def perturbed(offsets):
        c = falling(offsets)
        return c[:-1] + (c[-1] + 1.0,)

    monkeypatch.setattr(amplify, "falling", perturbed)
    report = analytic.verify_normal_ordering_identities(24)
    assert len(report) == 4
    for name, dev in report.items():
        assert dev > 0.5, name


def test_normal_ordering_identity_value_on_one():
    # a^2 adag a adag^2 |1> = 18 |1>: falling factorials give 0 + 0 + 14*1 + 4
    n = 12
    a, ad = destroy(n), create(n)
    left = a @ a @ ad @ a @ ad @ ad
    val = left[1, 1].real
    assert abs(val - 18.0) < 1e-12
    right = 0 + 8 * 0 + 14 * 1 + 4
    assert abs(val - right) < 1e-12


def test_normal_ordering_identities_on_vacuum():
    n = 12
    a, ad = destroy(n), create(n)
    words = {
        "sub_add3_sub3_add": a @ ad @ ad @ ad @ a @ a @ a @ ad,
        "sub2_add2_sub2_add2": a @ a @ ad @ ad @ a @ a @ ad @ ad,
    }
    vac = np.zeros(n)
    vac[0] = 1.0
    assert abs((words["sub_add3_sub3_add"] @ vac)[0] - 0.0) < 1e-12
    assert abs((words["sub2_add2_sub2_add2"] @ vac)[0] - 4.0) < 1e-12


def test_schemes_accept_strings():
    assert analytic.as_scheme("aadag") is Scheme.AADAG
    assert analytic.as_scheme("ADAG2") is Scheme.ADAG2
    with pytest.raises(ValueError):
        analytic.as_scheme("bogus")


def _accepted(word):
    try:
        return analytic.scheme_word(word) == word
    except ValueError:
        return False


#: every word of at most 4 letters that the closed forms take
WORDS = [w for n in range(5) for w in itertools.product(("add", "subtract"), repeat=n)
         if _accepted(w)]


def test_scheme_word_takes_exactly_the_words_that_never_go_below_the_input():
    # rightmost first, the photon number relative to the input must stay >= 0
    for n in range(6):
        for word in itertools.product(("add", "subtract"), repeat=n):
            levels = itertools.accumulate(1 if op == "add" else -1 for op in reversed(word))
            assert _accepted(word) == all(lv >= 0 for lv in levels), word
    assert len(WORDS) == 13
    assert analytic.scheme_word("aadag") == amplify.AADAG
    assert analytic.scheme_word(Scheme.ADAG2) == amplify.ADAG2
    with pytest.raises(ValueError, match="unknown ladder op"):
        analytic.scheme_word(("add", "hop"))


@pytest.mark.parametrize("word", WORDS, ids=lambda w: "-".join(w) or "empty")
def test_word_closed_forms_match_the_fock_oracles(word):
    grid = np.linspace(optimize.GAIN_LO, optimize.GAIN_HI, 4001)
    for d in (1, 3):
        for alpha in (0.4, 1.1, 2.3):
            for k in range(d):
                for g in (0.8, 1.3):
                    closed = analytic.scs_fidelity(alpha, g, d, k, word)
                    brute = check.fidelity(ScsSpec(alpha, d, k), g, word)
                    assert abs(closed - brute) <= 1e-12 * closed, (d, alpha, k, g)
                opt = optimize.scs_gain(ScsSpec(alpha, d, k), word)
                scan = analytic.scs_fidelity(alpha, grid, d, k, word)
                assert opt.value >= scan.max() - 1e-9, (d, alpha, k)
                closed = analytic.scs_qfi(alpha, d, k, word)
                brute = check.qfi(ScsSpec(alpha, d, k), word)
                assert abs(closed - brute) <= 1e-10 * closed, (d, alpha, k)


@pytest.mark.parametrize("word", [("add", "subtract"), ("subtract",)])
def test_words_that_subtract_below_the_input_are_rejected(word):
    # their class weights would take log1p(-1): -inf or nan, with a RuntimeWarning
    with pytest.raises(ValueError, match="below the input"):
        analytic.scs_fidelity(1.0, 1.2, 3, 1, word)
    with pytest.raises(ValueError, match="below the input"):
        analytic.scs_qfi(1.0, 3, 1, word)
    with pytest.raises(ValueError, match="below the input"):
        optimize.scs_gain(ScsSpec(1.0, 3, 1), word)


@pytest.mark.parametrize("call", [
    lambda: analytic.scs_fidelity(0.0, 1.0, 3, 4, "aadag"),
    lambda: analytic.scs_fidelity(1e-3, 1.0, 3, 4, "aadag"),
    lambda: analytic.scs_slope(1.0, 1.2, 3, 4, "aadag"),
    lambda: analytic.scs_slope_newton(1.0, 1.2, 3, -1, "adag2"),
    lambda: analytic.qfi_ratio(1.0, 3, 5),
    lambda: analytic.scs_qfi(1.0, 0, 0),
], ids=["F-alpha-0", "F", "slope", "newton", "qfi-ratio", "qfi-d-0"])
def test_closed_forms_reject_out_of_range_qudit_index(call):
    # k was reduced mod d only in some paths, so a bad (d, k) gave a value
    with pytest.raises(ValueError, match="must"):
        call()


def test_fidelity_ordering_on_grid():
    for alpha in np.arange(0.3, 3.01, 0.3):
        ga = analytic.hes_gain(alpha, Scheme.AADAG)
        g2 = analytic.hes_gain(alpha, Scheme.ADAG2)
        assert g2 > ga
        assert analytic.hes_fidelity(alpha, ga, Scheme.AADAG) > analytic.hes_fidelity(
            alpha, g2, Scheme.ADAG2
        )


def test_normalized_qfi_never_below_one():
    for alpha in np.arange(0.3, 3.01, 0.3):
        base = analytic.hes_qfi(alpha)
        for s in Scheme:
            assert analytic.hes_qfi(alpha, s) >= base - 1e-12


def test_scs_qfi_monotonicity_patterns():
    grid = np.arange(0.05, 3.001, 0.05)
    for k in (0, 1):
        vals = [analytic.scs_qfi(a, 2, k) for a in grid]
        assert all(b - a > -1e-12 for a, b in zip(vals, vals[1:]))
    vals = [analytic.scs_qfi(a, 5, 0) for a in grid]
    assert min(b - a for a, b in zip(vals, vals[1:])) < -1e-3


def test_class_poly_rejects_negative_or_non_finite_x():
    # d = 1 takes the closed form at every x, d = 3 the series below x = 30 and the
    # closed form past it: neither returns nan or inf for a bad point
    for d in (1, 3):
        for x in (-1.0, math.nan, math.inf, [1.0, math.nan], [1.0, 100.0, math.inf]):
            with pytest.raises(ValueError, match="x must be finite and >= 0"):
                amplify.class_poly((0, 0), np.asarray(x) if isinstance(x, list) else x, 0, d)


@pytest.mark.parametrize("d", [4, 7])
def test_fidelity_blocks_agree_with_single_gain_calls(d):
    # unsorted; three full blocks and 7 points, past the skip bound of z = g^2 alpha^2
    # and past the envelope cut (g > 274), with the sums that take the series (small
    # g alpha^2 and z) scattered over the blocks
    big = np.geomspace(0.5, 400.0, 3 * 2**14 + 7)
    g = np.random.default_rng(d).permutation(np.concatenate([big, np.geomspace(0.01, 0.49, 50)]))
    got = analytic.scs_fidelity(0.1, g, d, d - 1, "aadag")
    pick = np.r_[0:g.size:16, g.size - 7:g.size]
    want = np.array([analytic.scs_fidelity(0.1, g[i:i + 1], d, d - 1, "aadag")[0] for i in pick])
    assert np.max(np.abs(got[pick] - want)) <= 1e-15 * d


def _kept(x, d):
    """Where 64 S_j >= sum_n |E_n| (rows j, columns x): there ``root_sum``, off by
    about eps sum_n |E_n|, is within about 64 eps of S_j."""
    x = np.asarray(x, dtype=float)
    mags = np.exp(-np.multiply.outer(x, 1.0 - np.cos(2.0 * np.pi * np.arange(d) / d))).sum(axis=-1)
    return np.stack([64.0 * root_sum(j, x, d) >= mags for j in range(d)])


def test_root_sum_matches_high_precision_series():
    # S_j > 0, so the bound is relative at every j; from x = 20 on, where S_j is near 1
    # and its n != 0 terms are small, it is 4 eps
    extra = [1e-4, 0.05, 0.4, 0.49, 0.5, 0.51, 0.8, 2.0, 11.0, 22.5, 30.0, 40.0]
    for x in np.concatenate([np.geomspace(1e-3, 1000.0, 40), extra]):
        tol = 4 * np.finfo(float).eps if x >= 20 else 1e-13
        with mp.workdps(50):
            xm, t, terms = mp.mpf(float(x)), mp.exp(-mp.mpf(float(x))), []
            for m in range(int(x + 40 * math.sqrt(x)) + 200):
                terms.append(t)
                t *= xm / (m + 1)
            for d in range(1, 13):
                want = np.array([float(d * mp.fsum(terms[j::d])) for j in range(d)])
                got = np.array([root_sum(j, x, d) for j in range(d)])
                kept = _kept(x, d)
                assert np.all(np.abs(got - want)[kept] <= tol * want[kept]), (x, d)
    for d in range(1, 13):  # x = 0: exactly d at j = 0, and elsewhere a sum of roots of
        got = np.array([root_sum(j, 0.0, d) for j in range(d)])  # unity that cancels to ~eps
        assert got[0] == d and np.all(np.abs(got[1:]) <= d * np.finfo(float).eps), d


def test_root_sum_matches_direct_complex_sum():
    # the oracle takes the real part of each term; this sums all d complex terms, at
    # the values where neither cancels: 64 S_j >= sum |E_n|
    x = np.concatenate([np.geomspace(1e-3, 1000.0, 90), [0.5, 2.0, 22.4, 22.6, 45.0, 90.0]])
    for d in range(1, 13):
        n = np.arange(d)
        e = np.exp(-x[:, None] * (1.0 - np.exp(2j * np.pi * n / d)))  # E_n(x), a column per n
        direct = np.stack([(np.exp(-2j * np.pi * (j * n % d) / d) * e).sum(axis=1) for j in range(d)])
        kept = 64.0 * direct.real >= np.abs(e).sum(axis=1)
        got = np.stack([root_sum(j, x, d) for j in range(d)])
        assert np.all(np.abs(got - direct.real)[kept] <= 1e-13 * direct.real[kept]), d


def test_class_sum_matches_root_of_unity_sums():
    # the positive series against the paper's root-of-unity form, on both sides of
    # X_d and past it to x = 1000, where the root-of-unity form does not cancel:
    # within that form's 1e-13 relative bound plus the series' 16 eps sqrt(x)
    x = np.concatenate([np.geomspace(1e-3, 1000.0, 90), [0.5, 2.0, 22.4, 22.6, 40.0, 45.0, 90.0]])
    bound = 1e-13 + 16.0 * np.finfo(float).eps * np.sqrt(np.maximum(x, 1.0))
    for d in range(1, 13):
        kept = _kept(x, d)
        for j in range(d):
            want = root_sum(j, x, d)
            got = states.class_sum(j, x, d)
            assert np.all(np.abs(got - want)[kept[j]] <= (bound * want)[kept[j]]), (d, j)


def _mp_class_sum(j, x, d, offsets):
    """d e^-x sum prod_i (m + 1 + i) x^m / m! over m = j (mod d), to 40 digits."""
    with mp.workdps(40):
        xm, total, m = mp.mpf(float(x)), mp.mpf(0), j
        while True:
            term = math.prod(m + 1 + i for i in offsets) * (xm**m if m else 1) / mp.factorial(m)
            total += term
            if m > xm and term <= mp.mpf(10) ** -45 * total:
                return float(d * mp.exp(-xm) * total)
            m += d


def test_class_sum_matches_40_digit_class_sums():
    # the series route of class_poly, x <= X_d, for the bare state and the offsets of
    # the a a-dagger overlap, a a-dagger and a-dagger^2: within 16 eps, exact at x = 0,
    # and 0 where the sum leaves the doubles (x^j at x = 1e-300, j >= 2)
    eps = np.finfo(float).eps
    rng = np.random.default_rng(30)
    for d in range(3, 13):
        top = states.series_bound(d)
        x = np.concatenate([[0.0, 1e-300, 1e-20, top], top * rng.random(4)])
        for offsets in ((), (0,), (0, 0), (0, 1)):
            for j in range(d):
                got = states.class_sum(j, x, d, offsets)
                want = np.array([_mp_class_sum(j, xi, d, offsets) for xi in x])
                assert np.all(np.abs(got - want) <= 16 * eps * want), (d, offsets, j)
    # past X_d, where class_poly hands points to the series up to x (1 - cos 2 pi / d)
    # = 45 from d = 4 on, each point takes the table of its bucket of sqrt(x): within
    # a few eps sqrt(x)
    for d in (48, 200):
        x = np.concatenate([[40.5, 64.0, 64.5], np.geomspace(41.0, d * d / 39.0, 6)])
        for j in (0, 7, d // 2, d - 1):
            got = states.class_sum(j, x, d)
            want = np.array([_mp_class_sum(j, xi, d, ()) for xi in x])
            assert np.all(np.abs(got - want) <= 16 * eps * np.sqrt(x) * want), (d, j)
    # and on to that bound (5,260 at d 48, 91,190 at d 200), where the tables are
    # longest; one class at d 200, whose table next to the bound takes seconds to build
    for d, classes in ((48, (0, 7, 24, 47)), (200, (7,))):
        edge = states._SKIP / states._gap(d)
        x = np.append(np.geomspace(d * d / 39.0, edge, 5)[1:-1], edge * (1.0 - 1e-12))
        for j in classes:
            got = states.class_sum(j, x, d)
            want = np.array([_mp_class_sum(j, xi, d, ()) for xi in x])
            assert np.all(np.abs(got - want) <= 16 * eps * np.sqrt(x) * want), (d, j)


def test_class_poly_routes_agree_at_the_skip_bound():
    # class_poly takes the series below x (1 - cos 2 pi / d) = 45 and the closed form
    # sum_q c_q x^q past it; at that bound (1 -+ 1e-12) each route is within the
    # series' 16 eps sqrt(x) of the other
    eps = np.finfo(float).eps
    for d in range(2, 13):
        edge = states._SKIP / (1.0 - math.cos(2.0 * math.pi / d))
        lo, hi = edge * (1.0 - 1e-12), edge * (1.0 + 1e-12)
        tol = 16 * eps * math.sqrt(edge)
        for offsets in ((), (0,), (0, 0), (0, 1)):
            closed = np.polyval(amplify.falling(offsets), [lo, hi])
            for k in range(d):
                below, above = amplify.class_poly(offsets, np.array([lo, hi]), k, d)
                series = states.class_sum(k, np.array([lo, hi]), d, offsets)
                assert below == series[0] and above == closed[1]
                assert abs(below - closed[0]) <= tol * below, (d, offsets, k)
                assert abs(above - series[1]) <= tol * above, (d, offsets, k)


@pytest.mark.parametrize("d", [40, 60, 200])
def test_array_fidelity_at_large_d(monkeypatch, d):
    # no coefficient or power of the series leaves the doubles (1/200! would), and at
    # this d class_poly hands the series points past X_d, which take its sqrt(x) buckets
    past = []

    def spy(j, x, d, offsets=()):
        past.append(np.max(x, initial=0.0) > states.series_bound(d))
        return class_sum(j, x, d, offsets)

    class_sum = states.class_sum
    monkeypatch.setattr(states, "class_sum", spy)
    g = np.geomspace(0.05, 4.0, 5000)
    for s in Scheme:
        for k in (3, d // 2):
            got = analytic.scs_fidelity(8.0, g, d, k, s)  # RuntimeWarning: an error (pyproject.toml)
            assert np.all(np.isfinite(got)) and got.max() <= 1.0 + 1e-13, got.max() - 1.0
            big = np.flatnonzero(got >= 1e-3)
            want = np.array([analytic.scs_fidelity(8.0, float(g[i]), d, k, s) for i in big])
            assert big.size and np.all(np.abs(got[big] - want) <= 1e-12 * want), (s, k)
    assert any(past)


def test_array_fidelity_at_large_d_and_alpha_matches_50_digit_class_sums():
    # alpha 31.7, d 200: y and z near 1,000 are past X_d = 40, far inside the skip
    # bound 91,190, where the cancelled root-of-unity sums gave F 1.05e-12 off
    got = analytic.scs_fidelity(31.7, np.array([1.046]), 200, 3, Scheme.AADAG)[0]
    want = mp_scs_fidelity(31.7, 1.046, 200, 3, "aadag")
    assert abs(got - want) <= 1e-13 * want, (got, want)


def test_class_moments_match_high_precision_class_sums():
    # mean and variance of m - j and the log class sum, on the weights
    # prod_i (m + 1 + i) x^m / m! of the plain rise set, the a a-dagger overlap's (0,) and the named schemes' norm
    # weights (0, 0) and (0, 1), on both sides of x (1 - cos 2 pi / d) = 45 (d = 1: the
    # mixture moments at every x), against 50-digit sums over the class: all three of
    # ``_class_moments`` at a scalar x, and the ``_class_mean`` of x as a 1-element
    # array.  Near side, the scalar walk's weights are products of ratios, good to a
    # few ulps; its log sum carries the rounding of the exponent c ln x - ln c!
    eps = np.finfo(float).eps
    for d in range(1, 13):
        edge = states._SKIP / (1.0 - math.cos(2.0 * math.pi / d)) if d > 1 else 0.0
        xs = (0.05, 3.0, 50.0, 400.0) if d == 1 else (
            0.01 * edge, 0.1 * edge, 0.5 * edge, 0.999 * edge, 1.001 * edge, 3.0 * edge)
        for x in xs:
            tol = 1e-15 if x > edge else 1e-14
            vtol = tol if x > edge else max(tol, 4.0 * eps * x * math.log(x))
            walk_tol = 1e-15 if x > edge else 2e-15
            with mp.workdps(50):
                xm, t, terms = mp.mpf(float(x)), mp.mpf(1), []
                for m in range(int(x + 40 * math.sqrt(x)) + 200):
                    terms.append(t)
                    t *= xm / (m + 1)
                for j in range(d):
                    # power sums of e = m - j over the class: sum e^p x^m / m!, p <= 4
                    power = [mp.fsum(terms[m] * (m - j) ** p for m in range(j, len(terms), d))
                             for p in range(5)]
                    for rises in ((), (0,), (0, 0), (0, 1)):
                        poly = [1]  # prod_i (e + j + 1 + i), lowest power of e first
                        for i in rises:
                            poly = [(j + 1 + i) * a + b for a, b in zip(poly + [0], [0] + poly)]
                        total, first, second = (
                            mp.fsum(a * power[r + p] for r, a in enumerate(poly)) for p in range(3))
                        mean = first / total
                        var = float(second / total - mean * mean)
                        mean = float(mean)
                        log_sum = float(mp.log(total))
                        where = (d, j, x, rises)
                        got = analytic._class_moments(j, x, d, rises)
                        assert abs(got[0] - mean) <= walk_tol * mean, where
                        assert abs(got[1] - var) <= walk_tol * var, where
                        assert abs(got[2] - log_sum) <= vtol * max(1.0, abs(log_sum)), where
                        got = analytic._class_mean(j, np.array([x]), d, rises)
                        assert abs(got[0] - mean) <= tol * mean, where


@pytest.fixture
def kernel_calls(monkeypatch):
    """The arguments of every ``states._series_mean`` and ``_class_walk`` call the test
    makes; the ``_class_moments`` memo starts empty, so no walk of an earlier test is
    reused."""
    analytic._class_moments.cache_clear()
    calls = {"series": [], "walk": []}
    for name, module, attr in (("series", states, "_series_mean"), ("walk", analytic, "_class_walk")):
        kernel = getattr(module, attr)
        monkeypatch.setattr(module, attr, lambda *a, log=calls[name], f=kernel: log.append(a) or f(*a))
    return calls


# ("subtract", "add", "add") has the overlap rise set (1,), which no named scheme has
@pytest.mark.parametrize("s", [*Scheme, ("add",) * 3, ("subtract", "add", "add")])
def test_slope_in_the_far_field_makes_no_series_call(kernel_calls, s):
    # alpha = 5, d = 3: y = 25 g and z = 25 g^2 pass x (1 - cos 2 pi / 3) >= 45 from g = 2
    val = analytic.scs_slope(5.0, np.linspace(2.0, 20.0, 64), 3, 1, s)
    assert np.all(np.isfinite(val))
    analytic.scs_slope(0.5, np.linspace(1e-3, 20.0, 64), 1, 0, s)  # d = 1: every x
    analytic.scs_slope(5.0, 2.0, 3, 1, s)
    assert kernel_calls == {"series": [], "walk": []}
    # y = 27.5 is inside the bound, z = 30.25 beyond it: a scalar walks, an array sums a series
    analytic.scs_slope(5.0, 1.1, 3, 1, s)
    assert len(kernel_calls["walk"]) == 1 and kernel_calls["series"] == []
    analytic.scs_slope(5.0, np.array([1.1]), 3, 1, s)
    assert len(kernel_calls["walk"]) == 1 and len(kernel_calls["series"]) == 1


@pytest.mark.parametrize("rises", [(), (0,), (0, 0), (0, 1)])
def test_class_mean_sums_one_series_on_the_near_points_only(kernel_calls, rises):
    # alpha = 5, d = 3: x = 25 g over g in [1e-3, 20] straddles x (1 - cos 2 pi / 3) = 45,
    # so one call takes the mixture mean on the far points and one series on the near
    # ones; each point holds to the scalar mean within the 50-digit test's array bound
    d = 3
    x = 25.0 * np.linspace(1e-3, 20.0, 64)
    near = x * (1.0 - np.cos(2.0 * np.pi / d)) < states._SKIP
    assert 0 < near.sum() < x.size
    for j in range(d):
        got = analytic._class_mean(j, x, d, rises)
        assert len(kernel_calls["series"]) == j + 1
        args = kernel_calls["series"][j]
        assert args[0] == j and np.array_equal(args[1], x[near]) and args[2:] == (d, rises)
        for xi, gi, ni in zip(x.tolist(), got.tolist(), near.tolist()):
            want = analytic._class_moments(j, xi, d, rises)[0]
            assert abs(gi - want) <= (1e-14 if ni else 1e-15) * want, (j, xi)


@pytest.mark.parametrize("rises", [(), (0,), (0, 0), (0, 1)])
def test_class_mean_on_one_shared_window_matches_each_point_alone(rises):
    # one call per class on 32 points x in [0, near-field bound), d 2..24: each point
    # takes the class_sum table of its own bucket, so the call moves its mean from its
    # own 1-element call's by rounding only, and every point is within 1e-14 of the
    # scalar walk (a log-space window shared by the points was 2.2e-14 off at d 23)
    for d in range(2, 25):
        x = np.linspace(0.0, states._SKIP / (1.0 - math.cos(2.0 * math.pi / d)), 32, endpoint=False)
        for j in range(d):
            got = analytic._class_mean(j, x, d, rises)
            for xi, gi in zip(x.tolist(), got.tolist()):
                alone = analytic._class_mean(j, np.array([xi]), d, rises)[0]
                mean = analytic._class_walk(j, xi, d, rises)[0]
                assert abs(gi - alone) <= 1e-14 * mean, (d, j, xi)
                assert abs(gi - mean) <= 1e-14 * mean, (d, j, xi)


def test_class_mean_at_large_d_holds_to_the_walk():
    # the scan at d 24, alpha 8 (y = 64 g up to 1280 of the bound 1319) stays finite;
    # at d 100 and 200 the means run from 1e-262 (d 200, x 10, class 117: the class's
    # next member is below e^-45 of its lowest one on all of [0, 40], so the mean takes
    # it past the table's top, as the walk does) up to the bound (91,190 at d 200); at
    # d 100, class 0, x 40, w^2 = (x / s)^200 would overflow
    for s in Scheme:
        for k in (0, 11, 23):
            assert np.all(np.isfinite(analytic.scs_slope(8.0, optimize.SLOPE_GAINS, 24, k, s)))
    for d, j in ((100, 0), (100, 99), (200, 7), (200, 117), (200, 199)):
        x = np.array([0.0, 10.0, 40.0, 41.0, 1000.0, 0.999 * states._SKIP / states._gap(d)])
        got = analytic._class_mean(j, x, d)
        for xi, gi in zip(x.tolist(), got.tolist()):
            mean = analytic._class_walk(j, xi, d, ())[0]
            assert abs(gi - mean) <= 1e-14 * mean, (d, j, xi)


def test_series_tables_hold_the_direct_coefficients():
    # each table grows s^m and m! member by member; its coefficients are still the
    # correctly rounded P(m) s^m / (m! 2^E), and its moment columns [c, n c] hold
    # the same members, each times a power of two, and the next member up
    for j, d, offsets, q in ((0, 2, (), 0), (2, 5, (0, 1), 0), (11, 24, (0,), 0),
                             (117, 200, (), 0), (3, 7, (0, 0), 5), (7, 200, (), 20)):
        s, m_lo, c, g, n, moments = states._series_table(j, d, offsets, q)
        e = round((g + s) / math.log(2.0)) if q else 0
        ms = range(m_lo, m_lo + d * len(c), d)
        want = [(math.prod(m + 1 + i for i in offsets) * s ** m << max(-e, 0))
                / (math.factorial(m) << max(e, 0)) for m in ms]
        assert c[::-1] == tuple(want), (j, d, offsets, q)
        assert np.array_equal(n, np.arange(len(c) + 1.0)) and np.array_equal(moments[:, 1], n * moments[:, 0])
        assert [math.frexp(a)[0] for a in moments[:-1, 0].tolist()] == [math.frexp(b)[0] for b in want]
        # the next member m + d, in powers of x / sm: sm = s past X_d, and 64 >= X_d below
        m, sm = ms[-1], s if q else 64
        ratio = Fraction(math.prod(m + d + 1 + i for i in offsets) * sm ** d * math.factorial(m),
                         math.prod(m + 1 + i for i in offsets) * math.factorial(m + d))
        assert math.isclose(moments[-1, 0] / moments[-2, 0], ratio, rel_tol=1e-14), (j, d, offsets, q)
        assert not moments.flags.writeable


@pytest.mark.parametrize("s", list(Scheme))
def test_norm_moments_in_the_far_field_make_no_series_call(kernel_calls, s):
    # d = 1 at every alpha, and x = 100 at d = 3, past x (1 - cos 2 pi / 3) = 45
    for alpha, d in ((1e-3, 1), (0.5, 1), (7.0, 1), (10.0, 3)):
        for k in range(d):
            assert analytic.scs_qfi(alpha, d, k, s) > 0.0
            assert np.isfinite(analytic.scs_log_norm(alpha, d, k, s))
    assert analytic.hes_qfi(0.5, s) > 0.0
    assert kernel_calls == {"series": [], "walk": []}
