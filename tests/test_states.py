import math

import numpy as np
import pytest
from scipy.special import gammaln

from catamp import analytic, channel, fock, optimize, states
from catamp.errors import TruncationError
from catamp.states import HesSpec, ScsSpec

from conftest import cat_column, coherent_column, create, hybrid_matrix, poisson_tail
from oracles import norm_factor

ADD = ("add",)


def bare_norm_factor(spec):
    """1/sqrt(d S_k(alpha^2)): the norm factor of the empty word."""
    return norm_factor(spec, ())


def added_norm(alpha, m):
    """Norm sqrt(m! L_m(-alpha^2)) of a-dagger^m |alpha>: the inverse d = 1 norm factor."""
    return 1.0 / norm_factor(ScsSpec(alpha, 1, 0), ADD * m)


def test_norm_factor_even_cat():
    got = bare_norm_factor(ScsSpec(1.0, 2, 0))
    want = 1.0 / math.sqrt(2.0 * (1.0 + math.exp(-2.0)))
    assert abs(got - want) < 1e-14


def test_norm_factor_large_amplitude_limit():
    for k in range(3):
        got = bare_norm_factor(ScsSpec(4.0, 3, k))
        assert abs(got - 1.0 / math.sqrt(3.0)) < 1e-5


def test_norm_factor_matches_bare_superposition_norm():
    for d in (2, 3, 4, 5):
        for k in range(d):
            for alpha in (0.5, 1.0, 2.0):
                w = np.exp(2j * np.pi / d)
                acc = np.zeros(80, dtype=complex)
                for n in range(d):
                    acc += w ** (-k * n) * coherent_column(alpha * w**n, 80)
                got = bare_norm_factor(ScsSpec(alpha, d, k))
                assert abs(got - 1.0 / np.linalg.norm(acc)) < 1e-10


def test_norm_factor_degenerate_raises():
    with pytest.raises(ZeroDivisionError):  # S_1(0) is exactly 0
        bare_norm_factor(ScsSpec(0.0, 3, 1))


def test_scs_small_amplitude_reduces_to_number_state():
    v = states.scs_state(ScsSpec(1e-4, 3, 1), 20)
    assert abs(abs(v.amps[1]) - 1.0) < 1e-6


def test_scs_tiny_amplitude_keeps_one_nonzero_amplitude():
    # the second support amplitude is ~4e-28 of the first at alpha = 1e-9 and underflows at 1e-200
    for k in range(3):
        assert np.count_nonzero(states.scs_state(ScsSpec(1e-9, 3, k), 20).amps) > 1
        v = states.scs_state(ScsSpec(1e-200, 3, k), 20)
        assert np.count_nonzero(v.amps) == 1 and v.amps[k] == 1.0


def test_scs_zero_amplitude_is_a_number_state():
    v = states.scs_state(ScsSpec(0.0, 3, 1), 20)
    assert np.count_nonzero(v.amps) == 1
    assert v.amps[1] == 1.0


def test_scs_even_cat_ground_component():
    v = states.scs_state(ScsSpec(1.0, 2, 0), 40)
    want = 2.0 * math.exp(-0.5) / math.sqrt(2.0 * (1.0 + math.exp(-2.0)))
    assert abs(v.amps[0].real - want) < 1e-12


def test_scs_matches_coherent_sum_construction():
    for d in (2, 3, 5):
        for k in range(d):
            v = states.scs_state(ScsSpec(1.3, d, k), 50)
            oracle = cat_column(1.3, d, k, 50)
            # global phase is fixed positive in both constructions
            assert np.max(np.abs(v.amps - oracle)) < 1e-12


@pytest.mark.parametrize("alpha,d,k", [(0.05, 3, 2), (0.7, 1, 0), (1.3, 4, 1), (2.9, 5, 4),
                                      (5.0, 8, 3)])
def test_scs_matches_gammaln_amplitudes(alpha, d, k):
    trunc = fock.auto_trunc(alpha, additions=2) + k
    m = np.arange(k, trunc, d)
    w = np.exp(m * math.log(alpha) - 0.5 * gammaln(m + 1.0))
    want = np.zeros(trunc)
    want[m] = w / np.linalg.norm(w)
    assert np.max(np.abs(states.scs_state(ScsSpec(alpha, d, k), trunc).amps - want)) <= 1e-14


def test_scs_support_pattern():
    v = states.scs_state(ScsSpec(1.0, 3, 1), 30)
    nz = np.nonzero(np.abs(v.amps) > 0)[0]
    assert set(nz) <= {1, 4, 7, 10, 13, 16, 19, 22, 25, 28}
    v = states.scs_state(ScsSpec(2.0, 4, 2), 40)
    nz = np.nonzero(np.abs(v.amps) > 0)[0]
    assert set(nz) <= set(range(2, 40, 4))


def test_scs_off_support_mass_is_zero():
    for d in (2, 3, 4, 5):
        for k in range(d):
            v = states.scs_state(ScsSpec(0.8, d, k), 40)
            p = states.photon_distribution(v)
            off = sum(p[m] for m in range(p.size) if (m - k) % d != 0)
            assert off <= 1e-20


def test_scs_gram_identity():
    for d in (2, 3, 4, 5):
        for alpha in (0.5, 1.0, 2.0):
            trunc = fock.auto_trunc(alpha)
            vs = [states.scs_state(ScsSpec(alpha, d, k), trunc) for k in range(d)]
            gram = np.array([[fock.inner(a, b) for b in vs] for a in vs])
            assert np.max(np.abs(gram - np.eye(d))) < 1e-10


def test_scs_trunc_gate():
    with pytest.raises(TruncationError):
        states.scs_state(ScsSpec(2.0, 2, 0), 6)


def test_hes_norm_equals_one_minus_tail():
    h = states.hes_state(HesSpec(1.0, 3, 1), 40)
    assert abs(h.norm() ** 2 - 1.0) < 1e-12
    # at a tighter truncation the missing mass is exactly the coherent tail
    h = states.hes_state(HesSpec(1.0, 3, 1), 14)
    tail = poisson_tail(1.0, 14)
    assert tail > 1e-13  # the comparison below is non-vacuous
    assert abs(h.norm() ** 2 - (1.0 - tail)) < 1e-14


def test_hes_gram_identity():
    d, alpha = 4, 1.3
    trunc = fock.auto_trunc(alpha)
    hs = [states.hes_state(HesSpec(alpha, d, k), trunc) for k in range(d)]
    gram = np.array([[fock.inner(a, b) for b in hs] for a in hs])
    assert np.max(np.abs(gram - np.eye(d))) < 1e-10


def test_hes_matches_matrix_oracle():
    h = states.hes_state(HesSpec(0.9, 3, 2), 30)
    assert np.max(np.abs(h.amps - hybrid_matrix(0.9, 3, 2, 30))) < 1e-13


def test_hes_marginal_is_poissonian():
    for k in range(3):
        h = states.hes_state(HesSpec(1.0, 3, k), 40)
        p = states.photon_distribution(h)
        n = np.arange(40)
        poisson = np.exp(-1.0) / np.array([math.factorial(m) for m in n], dtype=float)
        assert np.max(np.abs(p - poisson)) < 1e-10


def test_photon_distribution_number_state():
    p = states.photon_distribution(fock.basis(3, 8))
    assert p[3] == 1.0 and p.sum() == 1.0


def test_photon_distribution_coherent_poisson():
    p = states.photon_distribution(fock.coherent(1.0, 40))
    n = np.arange(40)
    poisson = np.exp(-1.0) / np.array([math.factorial(m) for m in n], dtype=float)
    assert np.max(np.abs(p - poisson)) < 1e-12


def test_addition_norm_factor_base_cases():
    assert added_norm(1.0, 0) == 1.0
    assert abs(added_norm(1.0, 1) - math.sqrt(2.0)) < 1e-14


def test_addition_norm_factor_matches_fock_norm():
    for alpha in (0.5, 1.0, 2.0, 3.0):
        for m in range(5):
            n = 80
            vec = coherent_column(alpha, n)
            for _ in range(m):
                vec = create(n) @ vec
            assert abs(added_norm(alpha, m) - np.linalg.norm(vec)) < 1e-10


def test_addition_norm_factor_asymptotics():
    got = added_norm(30.0, 3) / 30.0**3
    assert abs(got - 1.0) < 1e-2


def test_addition_overlap_identity_case():
    # the squared overlap of the m-added hybrid qudit with its target is the word's fidelity
    assert analytic.hes_fidelity(1.3, 1.0, ()) == 1.0


def test_addition_overlap_single_addition_value():
    got = math.sqrt(analytic.hes_fidelity(2.0, 1.0, ADD))
    assert abs(got - 2.0 / math.sqrt(5.0)) < 1e-14


def best_added_target(alpha, m):
    """Target amplitude alpha G maximizing the m-addition fidelity, and that fidelity."""
    opt = optimize.scs_gain(ScsSpec(alpha, 1, 0), ADD * m)
    return alpha * opt.argmax, opt.value


def test_optimal_beta_large_amplitude():
    beta, fid = best_added_target(30.0, 2)
    assert fid > 0.9999
    assert abs(beta - 30.0) < 0.2


def test_optimal_beta_against_stationarity_oracle():
    # d(ln F)/d(beta) = 0 gives beta^2 - alpha beta - m = 0, so beta* = 3 at (2, 3)
    # and F* = beta*^{2m} e^{-(alpha-beta*)^2} / norm^2 = 729 e^{-1} / 286
    beta, fid = best_added_target(2.0, 3)
    assert abs(beta - 3.0) < 1e-6
    assert abs(fid - 729.0 * math.exp(-1.0) / 286.0) < 1e-9
    assert fid > 0.93


def test_optimal_beta_high_fidelity_regime():
    # a few additions on a large-amplitude state are nearly reversible
    beta, fid = best_added_target(5.0, 3)
    assert fid > 0.99
    assert beta > 5.0


def test_optimal_beta_zero_additions():
    assert best_added_target(1.7, 0) == (1.7, 1.0)


def test_quadrature_zero_for_qudits():
    lams = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    for d in (2, 3, 4):
        for k in range(d):
            trunc = fock.auto_trunc(1.0)
            v = states.scs_state(ScsSpec(1.0, d, k), trunc)
            h = states.hes_state(HesSpec(1.0, d, k), trunc)
            for lam in lams:
                assert abs(fock.quadrature_expect(v, lam)) <= 1e-10
                assert abs(fock.quadrature_expect(h, lam)) <= 1e-10


def test_spec_validation():
    with pytest.raises(ValueError):
        ScsSpec(1.0, 3, 3)
    with pytest.raises(ValueError):
        ScsSpec(-1.0, 3, 0)
    with pytest.raises(ValueError):
        HesSpec(1.0, 0, 0)


def test_build_takes_a_cat_or_hybrid_spec_and_nothing_else():
    assert np.array_equal(states.build(ScsSpec(1.0, 3, 1), 20).amps,
                          states.scs_state(ScsSpec(1.0, 3, 1), 20).amps)
    assert np.array_equal(states.build(HesSpec(1.0, 3, 1), 20).amps,
                          states.hes_state(HesSpec(1.0, 3, 1), 20).amps)
    with pytest.raises(TypeError, match="ScsSpec or HesSpec, got tuple"):
        states.build((1.0, 3, 1), 20)
    with pytest.raises(TypeError, match="ScsSpec or HesSpec, got tuple"):
        channel.compare_sim_vs_kraus((1.0, 3, 1), "aadag", 0.01, 20)
