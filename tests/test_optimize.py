import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catamp import analytic, optimize
from catamp.analytic import Scheme
from catamp.errors import OptimizationError
from catamp.states import ScsSpec

from conftest import series_scs_fidelity


def test_boundary_hit_flag():
    # double addition on the last index at amplitude 0.1: the fidelity still
    # rises at the top of the search range, and the slope certifies it
    res = optimize.scs_gain(ScsSpec(0.1, 3, 2), Scheme.ADAG2)
    assert res.boundary_hit
    assert res.argmax == optimize.GAIN_HI
    assert analytic.scs_slope(0.1, optimize.GAIN_HI, 3, 2, Scheme.ADAG2) > 0
    assert not optimize.scs_gain(ScsSpec(0.3, 3, 2), Scheme.ADAG2).boundary_hit


def test_nonfinite_objective_raises(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(analytic, "scs_slope", lambda *args: np.full(np.shape(args[1]), np.nan))
        with pytest.raises(OptimizationError):
            optimize.scs_gain(ScsSpec(1.0, 3, 0), Scheme.AADAG)
    monkeypatch.setattr(analytic, "scs_fidelity", lambda *args: float("inf"))
    with pytest.raises(OptimizationError):
        optimize.scs_gain(ScsSpec(1.0, 3, 0), Scheme.AADAG)


def test_zero_amplitude_has_fidelity_but_no_gain():
    # number states: F is the same at every gain, so none is singled out
    for s in Scheme:
        for k in range(3):
            res = optimize.scs_gain(ScsSpec(0.0, 3, k), s)
            assert res.argmax is None and not res.boundary_hit
            assert res.value == analytic.scs_fidelity(0.0, 2.5, 3, k, s)


def test_recovers_hes_gains():
    for alpha in np.round(np.arange(0.3, 3.0001, 0.1), 10):
        for s in Scheme:
            res = optimize.scs_gain(ScsSpec(float(alpha), 1, 0), s)
            exact = analytic.hes_gain(float(alpha), s)
            assert abs(res.argmax - exact) <= 1e-12 * exact, (alpha, s)


def test_scs_gain_reduces_to_closed_form_at_d1():
    # at d = 1 the optimum is the hybrid one: its fidelity is hes_fidelity at hes_gain
    for alpha in np.round(np.arange(0.3, 3.0001, 0.1), 10):
        for s in Scheme:
            res = optimize.scs_gain(ScsSpec(float(alpha), 1, 0), s)
            exact = float(analytic.hes_fidelity(float(alpha), analytic.hes_gain(float(alpha), s), s))
            assert abs(res.value - exact) <= 1e-13 * exact, (alpha, s)
            assert res.converged and not res.boundary_hit


def test_scs_gain_last_qudit_small_amplitude_behavior():
    # double addition on the last index: gain grows as amplitude shrinks
    g_small = optimize.scs_gain(ScsSpec(0.2, 4, 3), Scheme.ADAG2)
    g_mid = optimize.scs_gain(ScsSpec(1.0, 4, 3), Scheme.ADAG2)
    assert g_small.argmax > g_mid.argmax


def test_scs_gain_matches_dense_grid_scan():
    gg = np.arange(1e-4, 20.00005, 1e-4)
    for (alpha, d, k, s) in (
        (2.0, 3, 0, Scheme.AADAG),
        (1.0, 4, 3, Scheme.ADAG2),
        (0.5, 5, 4, Scheme.ADAG2),
        (1.0, 2, 1, Scheme.AADAG),
    ):
        vals = analytic.scs_fidelity(alpha, gg, d, k, s)
        i = int(np.argmax(vals))
        res = optimize.scs_gain(ScsSpec(alpha, d, k), s)
        assert abs(res.argmax - gg[i]) < 1e-3, (alpha, d, k, s)
        assert abs(res.value - vals[i]) < 1e-8


def test_scs_gain_stationarity_unless_boundary():
    h = 1e-5
    for (alpha, d, k, s) in ((1.0, 3, 1, Scheme.AADAG), (0.7, 4, 2, Scheme.ADAG2)):
        res = optimize.scs_gain(ScsSpec(alpha, d, k), s)
        if res.boundary_hit:
            continue
        slope = (
            analytic.scs_fidelity(alpha, res.argmax + h, d, k, s)
            - analytic.scs_fidelity(alpha, res.argmax - h, d, k, s)
        ) / (2 * h)
        assert abs(slope) < 1e-5


def test_find_crossing_square():
    assert abs(optimize.find_crossing(lambda x: x * x, 4.0, 1.0, 3.0) - 2.0) < 1e-6
    assert abs(optimize.find_crossing(lambda x: x * x, 4.0, 1.0, 3.0, tol=1e-14) - 2.0) <= 1e-14
    assert abs(optimize.find_crossing(lambda x: -x * x, -4.0, 1.0, 3.0, tol=1e-14) - 2.0) <= 1e-14


def test_find_crossing_requires_bracket():
    with pytest.raises(ValueError):
        optimize.find_crossing(lambda x: x * x, 100.0, 1.0, 3.0)


def test_hes_ratio_unit_crossing():
    star = optimize.find_crossing(lambda a: analytic.qfi_ratio(a), 1.0, 0.5, 1.2)
    assert 0.85 <= star <= 0.95


def test_hes_ratio_minimum_location():
    h = 1e-4

    def slope(a):
        return (analytic.qfi_ratio(a + h) - analytic.qfi_ratio(a - h)) / (2 * h)

    amin = optimize.find_crossing(slope, 0.0, 1.0, 2.0)
    assert 1.38 <= amin <= 1.48


def _mp_slope_root(alpha, d, k, s, guess):
    """Root of d(ln F)/dg from the S_j' = S_{j-1} - S_j expansion, at 50 digits."""

    def S(j, x):
        w = mp.exp(2j * mp.pi / d)
        return mp.re(mp.fsum(w ** (-j * n) * mp.exp(-x * (1 - w**n)) for n in range(d)))

    def slope(g):
        a2 = mp.mpf(alpha) ** 2
        y, z = g * a2, g * g * a2
        v = -2 * a2 * (g - 1)
        if s is Scheme.AADAG:
            s0, s1, s2 = S(k, y), S(k - 1, y), S(k - 2, y)
            return (v + 2 * a2 * (2 * s1 - s0 + y * (s2 - s1)) / (s0 + y * s1)
                    - 2 * g * a2 * (S(k - 1, z) / S(k, z) - 1))
        return (v + 4 / g + 2 * a2 * (S(k - 1, y) / S(k, y) - 1)
                - 2 * g * a2 * (S(k + 1, z) / S(k + 2, z) - 1))

    with mp.workdps(50):
        g0 = mp.mpf(guess)
        return float(mp.findroot(slope, (g0 * (1 - 1e-3), g0 * (1 + 1e-3)), solver="anderson"))


# the reference rows whose gain moved by more than 1e-6 when the slope root
# replaced the simplex (fig5 aadag d=5, fig8 adag2 d=3), plus two steep ones
PINNED_ROWS = (
    *((0.2, 5, k, Scheme.AADAG) for k in range(5)),
    *((0.4, 5, k, Scheme.AADAG) for k in (2, 3, 4)),
    (0.6, 5, 4, Scheme.AADAG), (0.8, 5, 4, Scheme.AADAG),
    (0.1, 3, 0, Scheme.ADAG2), (2.6, 5, 0, Scheme.AADAG), (1.3, 3, 1, Scheme.ADAG2),
)


@pytest.mark.parametrize("alpha,d,k,s", PINNED_ROWS)
def test_scs_gain_matches_high_precision_slope_root(alpha, d, k, s):
    res = optimize.scs_gain(ScsSpec(alpha, d, k), s)
    exact = _mp_slope_root(alpha, d, k, s, res.argmax)
    assert abs(res.argmax - exact) <= 1e-12 * exact, (res.argmax, exact)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(alpha=st.floats(0.15, 3.0), d=st.integers(1, 8), data=st.data())
def test_scs_gain_is_the_global_maximum(alpha, d, data):
    k = data.draw(st.integers(0, d - 1))
    s = data.draw(st.sampled_from(list(Scheme)))
    res = optimize.scs_gain(ScsSpec(alpha, d, k), s)
    gains = np.linspace(optimize.GAIN_LO, optimize.GAIN_HI, 2001)
    # scs_fidelity only preselects the scan points within 1e-6 of its maximum;
    # the comparison itself uses the positive series, which shares no code with
    # scs_fidelity or the slope
    scan = analytic.scs_fidelity(alpha, gains, d, k, s)
    best = series_scs_fidelity(alpha, gains[scan >= scan.max() - 1e-6], d, k, s.value).max()
    assert series_scs_fidelity(alpha, res.argmax, d, k, s.value)[0] >= best - 1e-12
    if not res.boundary_hit:
        h = 1e-9 * res.argmax
        assert analytic.scs_slope(alpha, res.argmax - h, d, k, s) > 0
        assert analytic.scs_slope(alpha, res.argmax + h, d, k, s) < 0
