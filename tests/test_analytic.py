import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catamp import amplify, analytic, fock, states
from catamp.analytic import Scheme
from catamp.errors import DivergentGainError
from catamp.states import HesSpec, ScsSpec

from conftest import cat_column, create, destroy, series_scs_fidelity, series_scs_qfi, var4


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
    amped, _ = amplify.hes_amplified(HesSpec(alpha, d, k), amplify.AADAG, trunc)
    _, var = fock.moments(amped)
    assert abs(analytic.hes_qfi(alpha, Scheme.AADAG) - 4 * var) < 1e-8


def test_scs_fidelity_reduces_to_hes_at_d1():
    for alpha in (0.4, 1.1, 2.3):
        for g in (0.8, 1.3, 2.0):
            for s in Scheme:
                got = analytic.scs_fidelity(alpha, g, 1, 0, s)
                want = analytic.hes_fidelity(alpha, g, s)
                assert abs(got - want) < 1e-12


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


def test_scs_qfi_reduces_to_coherent_at_d1():
    for alpha in (0.01, 0.5, 1.2, 2.4):
        assert abs(analytic.scs_qfi(alpha, 1, 0) - 4 * alpha * alpha) <= 1e-13 * 4 * alpha * alpha
        for s in Scheme:
            want = analytic.hes_qfi(alpha, s)
            assert abs(analytic.scs_qfi(alpha, 1, 0, s) - want) <= 1e-13 * want


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
    # every S_j whose root-of-unity sum cancels (small x, high j; worst from d = 6
    # on) must come from its positive series, or F drifts off (and above 1)
    k = data.draw(st.integers(0, d - 1))
    s = data.draw(st.sampled_from(list(Scheme)))
    # from g = 1e-6 on, g^2 alpha^2 keeps S_k clear of underflow at every k <= 11
    g = np.array(data.draw(st.lists(st.floats(1e-6, 20.0), min_size=1, max_size=32)))
    got = analytic.scs_fidelity(alpha, g, d, k, s)
    want = series_scs_fidelity(alpha, g, d, k, s.value)
    assert np.all(got <= 1.0 + 1e-13), got.max() - 1.0
    big = want >= 1e-3
    assert np.all(np.abs(got - want)[big] <= 1e-12 * want[big]), (got, want)


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


def test_qfi_spectral_number_state():
    rho = fock.DensityMatrix.from_pure(fock.basis(3, 10))
    assert analytic.qfi_spectral(rho) < 1e-12


def test_qfi_spectral_pure_coherent():
    rho = fock.DensityMatrix.from_pure(fock.coherent(1.0, 40))
    assert abs(analytic.qfi_spectral(rho) - 4.0) < 1e-6


def test_qfi_spectral_maximally_mixed_qubit():
    m = np.zeros((6, 6), dtype=complex)
    m[0, 0] = m[1, 1] = 0.5
    assert analytic.qfi_spectral(fock.DensityMatrix(m)) < 1e-12


def test_qfi_spectral_matches_variance_for_pure_states():
    v = states.scs_state(ScsSpec(1.0, 3, 1), 40)
    rho = fock.DensityMatrix.from_pure(v)
    _, var = fock.moments(v)
    assert abs(analytic.qfi_spectral(rho) - 4 * var) < 1e-6


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


def test_mod_exp_sum_rejects_negative_or_non_finite_x():
    for x in (-1.0, math.nan, math.inf, [1.0, math.nan]):
        with pytest.raises(ValueError):
            states.mod_exp_sum(0, x, 3)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 8])
def test_mod_exp_sum_index_tuple_stacks_single_calls(d):
    # values that cancel (small x, high j) and take the series, and both sides of
    # the skip at x (1 - cos 2 pi n / d) = 45
    xs = np.array([0.0, 0.05, 0.49, 0.5, 0.8, 3.0, 22.4, 22.6, 30.0, 40.0, 1000.0])
    js = tuple(range(-2, d))  # negative indices reduce mod d, as k - 2 does
    for x in (*xs, xs):
        want = np.stack([states.mod_exp_sum(j, x, d) for j in js])
        assert np.array_equal(states.mod_exp_sum(js, x, d), want)


@pytest.mark.parametrize("d", [4, 7])
def test_mod_exp_sum_blocks_agree_with_scalar_calls(d):
    # unsorted; three full blocks and 7 points, past every skip threshold, with
    # the values that take the series (small x, high j) scattered over the blocks;
    # the bound is absolute because the term magnitudes sum to at most d
    big = np.geomspace(0.5, 400.0, 3 * 2**14 + 7)
    x = np.random.default_rng(d).permutation(np.concatenate([big, np.geomspace(0.01, 0.49, 50)]))
    js = tuple(range(d))
    got = states.mod_exp_sum(js, x, d)
    pick = np.r_[0:x.size:16, x.size - 7:x.size]
    want = np.stack([states.mod_exp_sum(js, x[i], d) for i in pick], axis=1)
    assert np.max(np.abs(got[:, pick] - want)) <= 1e-15 * d


def test_mod_exp_sum_matches_high_precision_series():
    # S_j > 0, so the bound is relative at every j, where the complex sum cancels
    # (small x, high j) too; x = 22.5 .. 1000 skips terms, and from x = 20 on,
    # where S_j is near 1, a dropped term must stay below an ulp
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
                got = states.mod_exp_sum(tuple(range(d)), x, d)
                assert np.all(np.abs(got - want) <= tol * want), (x, d)
    for d in range(1, 13):  # exact at x = 0: d at j = 0 (mod d), 0 elsewhere
        assert np.array_equal(states.mod_exp_sum(tuple(range(d)), 0.0, d), d * (np.arange(d) == 0))
