import math

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln

from catamp import fock
from catamp.errors import DegenerateStateError

from conftest import coherent_column, poisson_tail


def test_vacuum_is_exact():
    v = fock.coherent(0.0, 8)
    assert v.amps[0] == 1.0
    assert np.all(v.amps[1:] == 0.0)


def test_coherent_ground_component():
    v = fock.coherent(1.0, 40)
    assert abs(v.amps[0] - math.exp(-0.5)) < 1e-15


def test_coherent_matches_series_oracle():
    for alpha in (0.3, 1.0, 2.7):
        v = fock.coherent(alpha, 50)
        assert np.max(np.abs(v.amps - coherent_column(alpha, 50))) < 1e-14


def test_coherent_components_nonnegative():
    v = fock.coherent(1.7, 60)
    assert np.all(v.amps.real >= 0.0)
    assert np.all(v.amps.imag == 0.0)


def test_opposite_phase_overlap():
    # |-alpha> built by flipping signs of the odd components
    v = fock.coherent(1.0, 40)
    flipped = v.amps * (-1.0) ** np.arange(40)
    got = fock.inner(v, fock.FockVector(flipped))
    assert abs(got - math.exp(-2.0)) < 1e-12


def test_coherent_rejects_negative_amplitude():
    with pytest.raises(ValueError):
        fock.coherent(-1.0, 10)


def test_inner_fock_orthonormality():
    assert fock.inner(fock.basis(2, 8), fock.basis(2, 8)) == 1.0
    assert fock.inner(fock.basis(1, 8), fock.basis(2, 8)) == 0.0


def test_inner_pads_shorter_vector():
    u = fock.basis(3, 5)
    v = fock.basis(3, 9)
    assert abs(fock.inner(u, v) - 1.0) < 1e-15


def test_truncated_coherent_norm_close_to_one():
    v = fock.coherent(1.0, 40)
    assert abs(fock.inner(v, v) - 1.0) < 1e-12


def test_ladder_annihilates_vacuum():
    out = fock.ladder(fock.basis(0, 6), "subtract")
    assert np.all(out.amps == 0.0)


def test_ladder_creation_on_one():
    out = fock.ladder(fock.basis(1, 6), "add")
    assert abs(out.amps[2] - math.sqrt(2.0)) < 1e-15
    assert np.count_nonzero(out.amps) == 1


def test_add_then_subtract_scales_number_state():
    v = fock.basis(3, 10)
    out = fock.ladder(fock.ladder(v, "add"), "subtract")
    assert out.trunc == 11  # the addition widened the vector; the subtraction kept it
    assert np.max(np.abs(out.amps - 4.0 * np.append(v.amps, 0.0))) < 1e-12


def test_ladder_algebra_commutator_on_interior():
    n = 16
    for m in range(n - 1):
        v = fock.basis(m, n)
        up_down = fock.ladder(fock.ladder(v, "add"), "subtract")
        down_up = fock.ladder(fock.ladder(v, "subtract"), "add")
        assert abs(fock.inner(v, up_down) - (m + 1)) < 1e-12
        assert abs(fock.inner(v, down_up) - m) < 1e-12


def test_adjointness(rng):
    n = 20
    for _ in range(10):
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        u[-1] = v[-1] = 0.0  # keep clear of the truncation boundary
        fu, fv = fock.FockVector(u), fock.FockVector(v)
        lhs = fock.inner(fock.ladder(fu, "add"), fv)
        rhs = fock.inner(fu, fock.ladder(fv, "subtract"))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_creation_widens_by_one():
    # the top component is raised, not dropped; annihilation keeps the width
    out = fock.ladder(fock.basis(5, 6), "add")
    assert out.trunc == 7 and out.amps[6] == math.sqrt(6.0)
    assert not out.amps[:6].any()
    down = fock.ladder(fock.basis(5, 6), "subtract")
    assert down.trunc == 6 and down.amps[4] == math.sqrt(5.0)


def test_row_stack_ladder_acts_row_by_row():
    # both rows occupy the top level, which creation raises in each of them
    stack = fock.FockVector(np.array([[0.6, 0.0, 0.8j], [0.0, 1.0, 2.0]]))
    for kind in ("add", "subtract"):
        out = fock.ladder(stack, kind)
        per_row = [fock.ladder(fock.FockVector(stack.amps[n]), kind) for n in range(2)]
        for n in range(2):
            assert np.array_equal(out.amps[n], per_row[n].amps)
    assert np.array_equal(fock.ladder(stack, "add").amps[:, 3], math.sqrt(3.0) * stack.amps[:, 2])
    with pytest.raises(ValueError):
        fock.inner(stack, fock.FockVector(stack.amps[0]))  # row counts differ


def test_normalize_returns_prior_norm():
    v = fock.FockVector(2.0 * fock.basis(0, 4).amps)
    unit, nrm = fock.normalize(v)
    assert abs(nrm - 2.0) < 1e-15
    assert abs(unit.norm() - 1.0) < 1e-15


def test_normalize_add_subtract_coherent_norm():
    # a a-dagger on |alpha>: squared norm alpha^4 + 3 alpha^2 + 1
    v = fock.coherent(1.0, 60)
    out = fock.ladder(fock.ladder(v, "add"), "subtract")
    _, nrm = fock.normalize(out)
    assert abs(nrm - math.sqrt(5.0)) < 1e-10


def test_normalize_zero_raises():
    with pytest.raises(DegenerateStateError):
        fock.normalize(fock.FockVector(np.zeros(4)))


def test_moments_number_state():
    mean, var = fock.moments(fock.basis(5, 12))
    assert mean == 5.0
    assert var == 0.0


def test_moments_coherent_poissonian():
    mean, var = fock.moments(fock.coherent(1.0, 40))
    assert abs(mean - 1.0) < 1e-10
    assert abs(var - 1.0) < 1e-10


def test_moments_variance_is_centered():
    # mean 1000, variance 1e-10 (1 - 1e-10): p n^2 - mean^2 keeps no digit of it
    amps = np.zeros(1002)
    amps[1000], amps[1001] = np.sqrt(1.0 - 1e-10), np.sqrt(1e-10)
    mean, var = fock.moments(fock.FockVector(amps))
    assert abs(mean - (1000.0 + 1e-10)) <= 1e-12
    assert abs(var - 1e-10 * (1.0 - 1e-10)) <= 1e-12 * 1e-10


def test_moments_rejects_unnormalized():
    with pytest.raises(ValueError):
        fock.moments(fock.FockVector(2.0 * fock.basis(0, 4).amps))


def test_quadrature_coherent():
    v = fock.coherent(1.0, 40)
    assert abs(fock.quadrature_expect(v, 0.0) - 2.0) < 1e-10
    assert abs(fock.quadrature_expect(v, math.pi / 2)) < 1e-10


def test_quadrature_number_state_vanishes():
    for lam in np.linspace(0, 2 * math.pi, 7):
        assert fock.quadrature_expect(fock.basis(4, 9), lam) == 0.0


def test_min_trunc_vacuum():
    assert fock.min_trunc(0.0, 1e-12) == 1


def test_min_trunc_is_tightest_bound():
    n = fock.min_trunc(2.0, 1e-12)
    assert poisson_tail(2.0, n) < 1e-12 <= poisson_tail(2.0, n - 1)


def test_min_trunc_monotonicity():
    alphas = [0.2, 0.7, 1.5, 2.4, 3.3]
    eps = [1e-6, 1e-9, 1e-12]
    for e in eps:
        ns = [fock.min_trunc(a, e) for a in alphas]
        assert ns == sorted(ns)
    for a in alphas:
        ns = [fock.min_trunc(a, e) for e in eps]
        assert ns == sorted(ns)


def test_min_trunc_is_the_exact_smallest_truncation():
    # exact Poisson tails: regularized lower incomplete gamma P(N, alpha^2) at 30 digits
    def tail(alpha, n):
        return mpmath.gammainc(n, 0, mpmath.mpf(alpha) ** 2, regularized=True) if n else 1

    with mpmath.workdps(30):
        for alpha in np.round(np.arange(0.0, 12.0001, 0.02), 10):
            for eps in (1e-10, 1e-12, 1e-14):
                n = fock.min_trunc(float(alpha), eps)
                assert tail(alpha, n) < eps <= tail(alpha, n - 1), (alpha, eps, n)


@pytest.mark.parametrize("alpha", [1e-9, 1e-6, 1e-4])
def test_min_trunc_is_exact_where_the_first_tail_term_underflows(alpha):
    # at these amplitudes the term at lam + 40 + 12 sqrt(lam) is below the normal doubles
    def tail(n):
        return mpmath.gammainc(n, 0, mpmath.mpf(alpha) ** 2, regularized=True) if n else 1

    with mpmath.workdps(30):
        for eps in (1e-10, 1e-14, 1e-30):
            n = fock.min_trunc(alpha, eps)
            assert tail(n) < eps <= tail(n - 1), (alpha, eps, n)


def test_coherent_tail_is_exact_deep_in_the_tail():
    with mpmath.workdps(30):
        exact = float(mpmath.gammainc(184, 0, 100, regularized=True))  # ~3.6e-14
    assert abs(fock.coherent_tail(10.0, 184) - exact) <= 1e-12 * exact
    assert fock.coherent_tail(0.0, 5) == 0.0
    assert fock.coherent_tail(1.0, 0) == 1.0


@pytest.mark.parametrize("alpha", [0.0, 0.05, 0.3, 1.0, 1.7, 2.5, 4.0, 5.2, 7.0])
def test_coherent_tail_matches_high_precision_poisson_tails(alpha):
    # truncations below the mean, at it, just past it, a few sigma out, deep in the
    # tail, and none at all
    lam = alpha * alpha
    truncs = {1, 2, int(lam) // 2 + 1, int(lam), int(lam) + 1, int(lam) + 2,
              int(lam + 3 * alpha) + 1, int(lam + 8 * alpha) + 5, int(lam + 12 * alpha) + 40}
    with mpmath.workdps(40):
        for trunc in sorted(truncs - {0}):
            exact = float(mpmath.gammainc(trunc, 0, mpmath.mpf(alpha) ** 2, regularized=True))
            got = fock.coherent_tail(alpha, trunc)
            assert abs(got - exact) <= 1e-12 * exact, (alpha, trunc, got, exact)
    assert fock.coherent_tail(alpha, 0) == fock.coherent_tail(alpha, -3) == 1.0


def test_log_factorial_table_matches_gammaln_as_it_grows():
    # a request past the table's end doubles it; the entries it held stay as they were
    before = fock._LOG_FACT.copy()
    m = np.arange(2 * before.size + 3)
    got = fock.log_factorial(m)
    size = fock._LOG_FACT.size
    assert size >= m.size and size & (size - 1) == 0
    assert np.array_equal(fock._LOG_FACT[: before.size], before)
    want = gammaln(m + 1.0)
    assert np.all(np.abs(got - want) <= 1e-15 * want)
    assert np.array_equal(fock.log_factorial(m[::7].astype(float)), got[::7])


@pytest.mark.parametrize("z", [0.3, 1.7 * np.exp(0.4j), 3.1j, 5.2, -6.5])
def test_coherent_amps_match_gammaln_amplitudes(z):
    n = np.arange(90)
    r = abs(z)
    want = np.exp(-0.5 * r * r + n * np.log(r) - 0.5 * gammaln(n + 1.0)) * (z / r) ** n
    assert np.max(np.abs(fock.coherent_amps(z, 90) - want)) <= 1e-14


def test_min_trunc_validates_epsilon():
    with pytest.raises(ValueError):
        fock.min_trunc(1.0, 0.0)
    with pytest.raises(ValueError):
        fock.min_trunc(1.0, 1.5)


def test_fockvector_rejects_nonfinite():
    inf, nan = np.inf, np.nan
    bad = ([1.0, inf], [nan, 1.0], [1.0, -inf], [1.0, complex(0.0, inf)], [complex(1.0, -inf), 0.0],
           [complex(0.0, nan)], [inf, -inf], [[1.0, 2.0], [3.0, complex(nan, 1.0)]])
    for amps in bad:
        with pytest.raises(ValueError):
            fock.FockVector(np.array(amps))


@pytest.mark.parametrize("amps", [[1e308, 1e308], [1e308j, 1e308j], [[-1e308, 1.0], [-1e308, 0.0]]])
def test_fockvector_accepts_finite_amplitudes_whose_sum_overflows(amps):
    assert np.array_equal(fock.FockVector(np.array(amps)).amps, amps)


def test_state_amplitudes_are_immutable():
    v = fock.coherent(1.0, 40)
    with pytest.raises(ValueError):
        v.amps[0] = 0.0
