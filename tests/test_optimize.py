import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catamp import analytic, cli, optimize
from catamp.analytic import Scheme
from catamp.errors import OptimizationError
from catamp.states import ScsSpec

from conftest import coherent_fidelity, series_scs_fidelity


def test_boundary_hit_flag():
    # double addition on the last index at amplitude 0.1: the fidelity still
    # rises at the top of the search range, and the slope certifies it
    res = optimize.scs_gain(ScsSpec(0.1, 3, 2), Scheme.ADAG2)
    assert res.boundary_hit
    assert res.argmax == optimize.GAIN_HI
    assert analytic.scs_slope(0.1, optimize.GAIN_HI, 3, 2, Scheme.ADAG2) > 0
    assert not optimize.scs_gain(ScsSpec(0.3, 3, 2), Scheme.ADAG2).boundary_hit


def test_gain_where_alpha_squared_underflows_is_an_explicit_error():
    # the scan was nan there, and the gain ended in "slope non-finite"
    for s in Scheme:
        for d in (2, 3, 5):
            for k in range(d):
                with pytest.raises((ArithmeticError, OptimizationError), match="alpha.1e-200") as e:
                    optimize.scs_gain(ScsSpec(1e-200, d, k), s)
                assert "non-finite" not in str(e.value)


def test_nonfinite_objective_raises(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(analytic, "scs_slope", lambda *args: np.full(np.shape(args[1]), np.nan))
        with pytest.raises(OptimizationError):
            optimize.scs_gain(ScsSpec(1.0, 3, 0), Scheme.AADAG)
    # a non-finite candidate value: the log sums that value the roots
    step = analytic.scs_slope_newton
    monkeypatch.setattr(analytic, "scs_slope_newton", lambda *a: (*step(*a)[:2], float("inf")))
    with pytest.raises(OptimizationError):
        optimize.scs_gain(ScsSpec(1.0, 3, 0), Scheme.AADAG)


def test_slope_scan_is_one_call(monkeypatch):
    # the scan is the only slope call, on the grid's prefix through the first point
    # past g_max = 1/2 + sqrt(1/4 + C / alpha^2) = 2.767, C = l + 2d + Q = 0 + 10 + 1;
    # each counted iteration is one (D, dD/dg) call
    sizes, steps = [], []
    slope, step = analytic.scs_slope, analytic.scs_slope_newton
    monkeypatch.setattr(analytic, "scs_slope", lambda *a: sizes.append(np.size(a[1])) or slope(*a))
    monkeypatch.setattr(analytic, "scs_slope_newton", lambda *a: steps.append(a[1]) or step(*a))
    res = optimize.scs_gain(ScsSpec(1.5, 5, 2), Scheme.AADAG)
    assert sizes == [37]
    assert len(steps) == res.iterations > 0


WINDOW_WORDS = (Scheme.AADAG, Scheme.ADAG2, ("add",), ("add",) * 3, ("subtract", "add", "add"))


def _brackets(scan):
    """Left ends of the scan's + to - sign changes, and whether it ends positive."""
    return np.flatnonzero((scan[:-1] > 0) & (scan[1:] <= 0)).tolist(), bool(scan[-1] > 0)


def test_windowed_scan_keeps_the_full_scans_brackets_and_result(monkeypatch):
    # no positive slope lies past g_max, so the window is scanned once, and its
    # brackets and GAIN_HI candidate are the full scan's; so is the whole result,
    # which the reference takes from the full 256-point scan's values
    rng = np.random.default_rng(14)
    full = np.linspace(optimize.GAIN_LO, optimize.GAIN_HI, optimize.SLOPE_GRID)
    slope, scans = analytic.scs_slope, []
    monkeypatch.setattr(analytic, "scs_slope", lambda *a: scans.append(slope(*a)) or scans[-1])
    for _ in range(1000):
        d = int(rng.integers(1, 13))
        alpha, k = float(rng.uniform(0.05, 3.0)), int(rng.integers(0, d))
        s = WINDOW_WORDS[int(rng.integers(0, len(WINDOW_WORDS)))]
        scans.clear()
        got = optimize.scs_gain(ScsSpec(alpha, d, k), s)
        ref = slope(alpha, full, d, k, s)
        assert len(scans) == 1 and _brackets(scans[0]) == _brackets(ref), (alpha, d, k, s)
        with monkeypatch.context() as m:
            m.setattr(analytic, "scs_slope", lambda a, g, *r: ref[:np.size(g)])
            assert got == optimize.scs_gain(ScsSpec(alpha, d, k), s), (alpha, d, k, s)


def test_positive_slope_at_the_window_end_rescans_the_whole_grid(monkeypatch):
    # a slope still positive past g_max (which only rounding could make) is not
    # trusted to the window: the whole grid is scanned, and here ends positive
    sizes = []
    monkeypatch.setattr(analytic, "scs_slope", lambda *a: sizes.append(np.size(a[1])) or np.ones(np.shape(a[1])))
    res = optimize.scs_gain(ScsSpec(1.5, 5, 2), Scheme.AADAG)
    assert sizes == [37, optimize.SLOPE_GRID]
    assert res.argmax == optimize.GAIN_HI and res.boundary_hit


# cells of a seeded 1,500-cell draw (d 2..12, k and alpha in [0.05, 5] drawn, both
# schemes) whose cut scan comes closest to a sign change, relative to its class means
# (1.6e-5 to 6.1e-5), and the first sign and sign-change points of that scan as
# per-point log-space windows read them; no scan of the draw changed a sign
SCAN_SIGN_PINS = ((2.4209103070967397, 11, 9, Scheme.ADAG2, 34, [15]),
                  (0.19585958690525457, 11, 9, Scheme.ADAG2, 256, [195]),
                  (0.3253190241056689, 10, 8, Scheme.ADAG2, 192, [112]),
                  (0.8348583866186711, 11, 9, Scheme.ADAG2, 83, [45]),
                  (0.38963121747526364, 2, 1, Scheme.ADAG2, 88, [57]),
                  (2.518263624875705, 8, 0, Scheme.AADAG, 30, [14]))


@pytest.mark.parametrize("alpha,d,k,s,size,changes", SCAN_SIGN_PINS)
def test_slope_scan_keeps_its_pinned_signs(monkeypatch, alpha, d, k, s, size, changes):
    slope, scans = analytic.scs_slope, []
    monkeypatch.setattr(analytic, "scs_slope", lambda *a: scans.append(slope(*a)) or scans[-1])
    optimize.scs_gain(ScsSpec(alpha, d, k), s)
    scan, = scans
    assert scan.size == size and scan[0] > 0
    assert np.flatnonzero(np.diff(np.signbit(scan))).tolist() == changes


def test_slope_scan_signs_are_the_scalar_slopes():
    # the array route (class means on the class_sum tables) and the scalar route (the
    # class walk) give the same sign at every gain of random prefixes of the grid
    rng = np.random.default_rng(31)
    for _ in range(120):
        d = int(rng.integers(2, 13))
        alpha, k = float(rng.uniform(0.05, 5.0)), int(rng.integers(0, d))
        s = WINDOW_WORDS[int(rng.integers(0, len(WINDOW_WORDS)))]
        g = optimize.SLOPE_GAINS[:int(rng.integers(16, optimize.SLOPE_GRID + 1))]
        scan = analytic.scs_slope(alpha, g, d, k, s)
        want = [analytic.scs_slope(alpha, gi, d, k, s) for gi in g.tolist()]
        assert np.array_equal(np.sign(scan), np.sign(want)), (alpha, d, k, s)


ROBUST_CELLS = ((1.5, 5, 2, Scheme.AADAG), (1.3, 3, 1, Scheme.ADAG2), (0.2, 5, 4, Scheme.AADAG),
                (2.0, 1, 0, Scheme.ADAG2))


@pytest.mark.parametrize("alpha,d,k,s", ROBUST_CELLS)
def test_refinement_falls_back_where_newton_leaves_the_bracket(monkeypatch, alpha, d, k, s):
    # a derivative of the wrong sign sends every Newton step out of its bracket,
    # so only the false-position steps remain, and they find the same root
    want = optimize.scs_gain(ScsSpec(alpha, d, k), s)
    step = analytic.scs_slope_newton
    monkeypatch.setattr(analytic, "scs_slope_newton",
                        lambda *a: (lambda f, df, log_f: (f, -df, log_f))(*step(*a)))
    got = optimize.scs_gain(ScsSpec(alpha, d, k), s)
    assert got.converged and not got.boundary_hit
    assert abs(got.argmax - want.argmax) <= optimize.ROOT_XTOL, (got.argmax, want.argmax)


def test_refinement_raises_on_a_non_finite_step(monkeypatch):
    for bad in ((float("nan"), -1.0, 0.0), (1.0, float("nan"), 0.0), (float("inf"), -1.0, 0.0)):
        monkeypatch.setattr(analytic, "scs_slope_newton", lambda *a, bad=bad: bad)
        with pytest.raises(OptimizationError):
            optimize.scs_gain(ScsSpec(1.5, 5, 2), Scheme.AADAG)


def test_refinement_that_never_shrinks_its_step_is_not_converged(monkeypatch):
    # D > 0 and dD/dg = -1e10 everywhere: every step is +1e-10, inside the bracket
    monkeypatch.setattr(analytic, "scs_slope_newton", lambda *a: (1.0, -1e10, 0.0))
    res = optimize.scs_gain(ScsSpec(1.5, 5, 2), Scheme.AADAG)
    assert res.iterations == optimize.ROOT_MAX_CALLS and not res.converged


def test_candidates_are_valued_without_a_fidelity_call(monkeypatch):
    # every candidate, GAIN_HI too, is valued from the log class sums of a
    # slope step, so all of them compare on one route
    calls, fidelity = [], analytic.scs_fidelity
    monkeypatch.setattr(analytic, "scs_fidelity", lambda *a: calls.append(a) or fidelity(*a))
    for alpha, d, k, s in (*ROBUST_CELLS, (0.1, 3, 2, Scheme.ADAG2), (0.05, 8, 7, Scheme.ADAG2)):
        res = optimize.scs_gain(ScsSpec(alpha, d, k), s)
        want = fidelity(alpha, res.argmax, d, k, s)
        assert abs(res.value - want) <= 1e-13 * want, (alpha, d, k, s)
    assert res.boundary_hit and calls == []


def _random_cells(n: int, seed: int):
    """n cells (alpha, d, k, scheme): d in 1..8, alpha in [0.05, 3], k and scheme uniform."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        d = int(rng.integers(1, 9))
        yield float(rng.uniform(0.05, 3.0)), d, int(rng.integers(0, d)), list(Scheme)[
            int(rng.integers(0, 2))]


def test_optimized_fidelity_matches_the_fidelity_at_the_gain():
    interior = 0
    for alpha, d, k, s in _random_cells(320, 17):
        res = optimize.scs_gain(ScsSpec(alpha, d, k), s)
        if res.boundary_hit:
            continue
        interior += 1
        want = analytic.scs_fidelity(alpha, res.argmax, d, k, s)
        assert abs(res.value - want) <= 1e-13 * want, (alpha, d, k, s, res.value, want)
    assert interior >= 300


def test_refinement_takes_about_three_evaluations_per_root(monkeypatch):
    # Newton steps converge quadratically (errors of about 1e-3, 1e-6, 1e-12), so
    # the quadratic stop saves the evaluation that only confirms the root
    roots, newton = [], optimize._newton
    monkeypatch.setattr(optimize, "_newton", lambda *a: roots.append(newton(*a)) or roots[-1])
    total = sum(optimize.scs_gain(ScsSpec(alpha, d, k), s).iterations
                for alpha, d, k, s in _random_cells(400, 0))
    assert total / len(roots) <= 3.1, total / len(roots)


def _traced(step):
    """step, and the list of points it is evaluated at."""
    points = []
    return (lambda x: points.append(x) or step(x)), points


def test_newton_stops_on_the_quadratic_error_estimate():
    # x^2 - 2: the stop comes after a step larger than tol, once the step before
    # it puts the error left below tol
    step, points = _traced(lambda x: (x * x - 2.0, 2.0 * x))
    root, calls, ok, (x, out) = optimize._newton(step, 1.0, 2.0, -1.0, 2.0, 1e-14)
    assert ok and abs(root - 2.0 ** 0.5) <= 4e-16
    assert calls == len(points) and x == points[-1] and out == (x * x - 2.0, 2.0 * x)
    assert abs(root - x) > 1e-14


def test_newton_linear_contraction_never_stops_early():
    # x |x| at its double-root-like zero: each Newton step is exactly half the
    # last, which a quadratic error estimate would take for convergence
    step, points = _traced(lambda x: (x * abs(x), 2.0 * abs(x)))
    root, calls, ok, (x, _) = optimize._newton(step, -1.0, 0.5, -1.0, 0.25, 1e-14)
    assert ok and calls == len(points) > 40
    assert abs(root - x) <= 1e-14 < abs(points[-2] - x)


def test_newton_false_position_steps_never_stop_early():
    # a derivative of the wrong sign sends every step to the false-position
    # point, which on the convex x^2 - 2 contracts linearly (ratio about 0.17)
    step, points = _traced(lambda x: (x * x - 2.0, -2.0 * x))
    root, calls, ok, (x, _) = optimize._newton(step, 1.0, 2.0, -1.0, 2.0, 1e-14)
    assert ok and calls == len(points)
    assert abs(root - x) <= 1e-14 and abs(root - 2.0 ** 0.5) <= 1e-14


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
    # at d = 1 the optimum is the hybrid one: its fidelity is the coherent polynomial at hes_gain
    for alpha in np.round(np.arange(0.3, 3.0001, 0.1), 10):
        for s in Scheme:
            res = optimize.scs_gain(ScsSpec(float(alpha), 1, 0), s)
            exact = coherent_fidelity(float(alpha), analytic.hes_gain(float(alpha), s), s.value)
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


def test_find_crossing_rejects_a_reversed_bracket(capsys):
    with pytest.raises(ValueError, match="lo < hi"):
        optimize.find_crossing(lambda x: x * x, 4.0, 3.0, 1.0)
    assert cli.main(["crossing", "--lo", "1.2", "--hi", "0.5"]) == 2
    captured = capsys.readouterr()
    assert "lo < hi" in captured.err
    assert captured.out == ""


def test_hes_ratio_unit_crossing():
    star = optimize.find_crossing(lambda a: analytic.qfi_ratio(a), 1.0, 0.5, 1.2)
    assert 0.85 <= star <= 0.95


def test_hes_ratio_minimum_location():
    h = 1e-4

    def slope(a):
        return (analytic.qfi_ratio(a + h) - analytic.qfi_ratio(a - h)) / (2 * h)

    amin = optimize.find_crossing(slope, 0.0, 1.0, 2.0)
    assert 1.38 <= amin <= 1.48


def _mp_slope(alpha, d, k, s):
    """d(ln F)/dg from the S_j' = S_{j-1} - S_j expansion, for mpmath gains."""

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

    return slope


def _mp_slope_root(alpha, d, k, s, guess):
    """Root of d(ln F)/dg at 50 digits."""
    with mp.workdps(50):
        g0 = mp.mpf(guess)
        return float(mp.findroot(_mp_slope(alpha, d, k, s), (g0 * (1 - 1e-3), g0 * (1 + 1e-3)),
                                 solver="anderson"))


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


@pytest.mark.parametrize("alpha,d,k,s", PINNED_ROWS)
def test_slope_derivative_matches_high_precision(alpha, d, k, s):
    # dD/dg, D = g/2 times the slope, at the root and on either side of it
    root = optimize.scs_gain(ScsSpec(alpha, d, k), s).argmax
    slope = _mp_slope(alpha, d, k, s)
    for g in (0.5 * root, root, 1.5 * root):
        dgap = analytic.scs_slope_newton(alpha, g, d, k, s)[1]
        with mp.workdps(50):
            want = float(mp.diff(lambda x: x * slope(x) / 2, mp.mpf(g)))
        assert abs(dgap - want) <= 2e-14 * abs(want), (g, dgap, want)


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
