import math

import numpy as np
import pytest

from catamp import fock, states
from catamp.errors import DegenerateStateError, TruncationError
from catamp.states import HesSpec, ScsSpec

from conftest import cat_column, coherent_column, create, hybrid_matrix, poisson_tail


def test_mod_delta_periodicity():
    for d in (2, 3, 5):
        for m in range(-2, 2 * d):
            for k in range(-2, 2 * d):
                base = states.mod_delta(m, k, d)
                assert states.mod_delta(m + d, k, d) == base
                assert states.mod_delta(m, k + d, d) == base
    assert states.mod_delta(7, 1, 3) == 1
    assert states.mod_delta(7, 2, 3) == 0


def test_norm_factor_even_cat():
    got = states.scs_norm_factor(ScsSpec(1.0, 2, 0))
    want = 1.0 / math.sqrt(2.0 * (1.0 + math.exp(-2.0)))
    assert abs(got - want) < 1e-14


def test_norm_factor_large_amplitude_limit():
    for k in range(3):
        got = states.scs_norm_factor(ScsSpec(4.0, 3, k))
        assert abs(got - 1.0 / math.sqrt(3.0)) < 1e-5


def test_norm_factor_matches_bare_superposition_norm():
    for d in (2, 3, 4, 5):
        for k in range(d):
            for alpha in (0.5, 1.0, 2.0):
                w = np.exp(2j * np.pi / d)
                acc = np.zeros(80, dtype=complex)
                for n in range(d):
                    acc += w ** (-k * n) * coherent_column(alpha * w**n, 80)
                got = states.scs_norm_factor(ScsSpec(alpha, d, k))
                assert abs(got - 1.0 / np.linalg.norm(acc)) < 1e-10


def test_norm_factor_degenerate_raises():
    with pytest.raises(DegenerateStateError):
        states.scs_norm_factor(ScsSpec(0.0, 3, 1))


def test_scs_small_amplitude_reduces_to_number_state():
    v = states.scs_state(ScsSpec(1e-4, 3, 1), 20)
    assert abs(abs(v.amps[1]) - 1.0) < 1e-6


def test_scs_zero_amplitude_is_tagged_fock_limit():
    v = states.scs_state(ScsSpec(0.0, 3, 1), 20)
    assert "fock-limit" in v.tags
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
    assert states.addition_norm_factor(1.0, 0) == 1.0
    assert abs(states.addition_norm_factor(1.0, 1) - math.sqrt(2.0)) < 1e-14


def test_addition_norm_factor_matches_fock_norm():
    for alpha in (0.5, 1.0, 2.0, 3.0):
        for m in range(5):
            n = 80
            vec = coherent_column(alpha, n)
            for _ in range(m):
                vec = create(n) @ vec
            assert abs(states.addition_norm_factor(alpha, m) - np.linalg.norm(vec)) < 1e-10


def test_addition_norm_factor_asymptotics():
    got = states.addition_norm_factor(30.0, 3) / 30.0**3
    assert abs(got - 1.0) < 1e-2


def test_addition_overlap_selection_rule():
    for l in range(5):
        val = states.addition_overlap(1.0, 1.2, 5, 1, l, 2)
        if l == 3:
            assert val > 0
        else:
            assert val == 0.0


def test_addition_overlap_identity_case():
    assert states.addition_overlap(1.3, 1.3, 4, 2, 2, 0) == 1.0


def test_addition_overlap_single_addition_value():
    got = states.addition_overlap(2.0, 2.0, 3, 0, 1, 1)
    assert abs(got - 2.0 / math.sqrt(5.0)) < 1e-14


def test_addition_overlap_matches_bruteforce():
    # <H^l_beta| (I x adag^m) |H^k_alpha> / N against dense two-mode arithmetic
    n = 100
    for alpha in (0.5, 1.0, 2.0, 3.0):
        for beta in (0.5, 1.0, 2.0, 3.0):
            for d in (2, 3, 5):
                for m in range(5):
                    k = 1 % d
                    l = (k + m) % d
                    ket = hybrid_matrix(alpha, d, k, n)
                    bra = hybrid_matrix(beta, d, l, n)
                    added = ket @ create(n).T.conj()  # adag acting on every row
                    for _ in range(m - 1):
                        added = added @ create(n).T.conj()
                    if m == 0:
                        added = ket
                    brute = np.vdot(bra, added) / states.addition_norm_factor(alpha, m)
                    got = states.addition_overlap(alpha, beta, d, k, l, m)
                    assert abs(got - brute) < 1e-8


def test_optimal_beta_large_amplitude():
    beta, fid = states.optimal_beta(30.0, 2, 2)
    assert fid > 0.9999
    assert abs(beta - 30.0) < 0.2


def test_optimal_beta_against_stationarity_oracle():
    # d(ln F)/d(beta) = 0 gives beta^2 - alpha beta - m = 0, so beta* = 3 at (2, 3)
    # and F* = beta*^{2m} e^{-(alpha-beta*)^2} / norm^2 = 729 e^{-1} / 286
    beta, fid = states.optimal_beta(2.0, 3, 4)
    assert abs(beta - 3.0) < 1e-6
    assert abs(fid - 729.0 * math.exp(-1.0) / 286.0) < 1e-9
    assert fid > 0.93


def test_optimal_beta_high_fidelity_regime():
    # a few additions on a large-amplitude state are nearly reversible
    beta, fid = states.optimal_beta(5.0, 3, 4)
    assert fid > 0.99
    assert beta > 5.0


def test_optimal_beta_zero_additions():
    assert states.optimal_beta(1.7, 0, 3) == (1.7, 1.0)


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
