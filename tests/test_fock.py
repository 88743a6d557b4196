import math

import numpy as np
import pytest

from catamp import fock
from catamp.errors import DegenerateStateError, TruncationError

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
    assert np.max(np.abs(out.amps - 4.0 * v.amps)) < 1e-12


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


def test_creation_leak_diagnostic():
    v = fock.basis(5, 6)  # top component occupied
    out = fock.ladder(v, "add")
    assert np.all(out.amps == 0.0)
    assert abs(out.leaked - 6.0) < 1e-12  # |sqrt(6) * 1|^2
    with pytest.raises(TruncationError):
        fock.check_leak(out)


def test_row_stack_ladder_acts_row_by_row():
    # both rows occupy the top level, so creation leaks from each of them
    stack = fock.FockVector(np.array([[0.6, 0.0, 0.8j], [0.0, 1.0, 2.0]]))
    for kind in ("add", "subtract"):
        out = fock.ladder(stack, kind)
        per_row = [fock.ladder(stack.row(n), kind) for n in range(2)]
        for n in range(2):
            assert np.array_equal(out.amps[n], per_row[n].amps)
        assert abs(out.leaked - sum(r.leaked for r in per_row)) < 1e-12
    assert abs(fock.ladder(stack, "add").leaked - 3.0 * (0.64 + 4.0)) < 1e-12
    with pytest.raises(ValueError):
        fock.inner(stack, stack.row(0))  # row counts differ


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


def test_min_trunc_validates_epsilon():
    with pytest.raises(ValueError):
        fock.min_trunc(1.0, 0.0)
    with pytest.raises(ValueError):
        fock.min_trunc(1.0, 1.5)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        fock.DensityMatrix(np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        fock.DensityMatrix(np.eye(3))  # trace 3
    rho = fock.DensityMatrix.from_pure(fock.coherent(1.0, 30))
    assert rho.dim == 30
    stack = fock.FockVector(np.eye(2) / math.sqrt(2.0))
    with pytest.raises(ValueError):  # a two-row state is not one mode's pure state
        fock.DensityMatrix.from_pure(stack)


def test_fockvector_rejects_nonfinite():
    with pytest.raises(ValueError):
        fock.FockVector(np.array([1.0, np.inf]))


def test_state_amplitudes_are_immutable():
    v = fock.coherent(1.0, 40)
    with pytest.raises(ValueError):
        v.amps[0] = 0.0
    rho = fock.DensityMatrix.from_pure(v)
    with pytest.raises(ValueError):
        rho.entries[0, 0] = 0.0
