"""End-to-end acceptance suite.

Each test covers one numbered criterion at its stated tolerance and prints a
PASS line when it holds; failures surface through pytest with the criterion
id in the test name.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math

import numpy as np
import pytest
from scipy.special import eval_laguerre, gammaln

from catamp import amplify, analytic, channel, check, fock, optimize, states
from catamp.analytic import Scheme
from catamp.states import HesSpec, ScsSpec

from oracles import norm_factor

ALPHA_GRID = tuple(round(0.3 * i, 10) for i in range(1, 11))  # 0.3 .. 3.0
GAIN_GRID = tuple(round(0.8 + 0.2 * i, 10) for i in range(7))  # 0.8 .. 2.0
DIMS = (1, 2, 3, 4, 5)


def _pass(cid: str, text: str) -> None:
    print(f"PASS [{cid}] {text}")


def ternary_argmax(f, lo, hi, iters=120):
    for _ in range(iters):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if f(m1) < f(m2):
            lo = m1
        else:
            hi = m2
    return 0.5 * (lo + hi)


def test_criterion_1_hes_ratio_landmarks():
    assert abs(analytic.qfi_ratio(1e-3) - 4.0 / 3.0) < 1e-3
    assert abs(analytic.qfi_ratio(0.45) - 1.11) <= 0.01
    star = optimize.find_crossing(lambda a: analytic.qfi_ratio(a), 1.0, 0.5, 1.2)
    assert 0.85 <= star <= 0.95
    h = 1e-4

    def slope(a):
        return (analytic.qfi_ratio(a + h) - analytic.qfi_ratio(a - h)) / (2 * h)

    amin = optimize.find_crossing(slope, 0.0, 1.0, 2.0)
    assert 1.38 <= amin <= 1.48
    _pass("criterion-1", f"hybrid Fisher ratio: 4/3 endpoint, 1.11@0.45, "
          f"unit crossing at {star:.3f}, minimum at {amin:.3f}")


def test_criterion_2_spot_values():
    spots = [
        (analytic.hes_fidelity(1.0, 1.0, Scheme.AADAG), 0.8),
        (analytic.hes_gain(1.0, Scheme.AADAG), math.sqrt(2.0)),
        (analytic.hes_gain(1.0, Scheme.ADAG2), 2.0),
        (analytic.hes_qfi(1.0), 4.0),
        (analytic.hes_qfi(1.0, Scheme.AADAG), 5.6),
        (analytic.hes_qfi(1.0, Scheme.ADAG2), 276.0 / 49.0),
    ]
    for got, want in spots:
        assert abs(got - want) < 1e-10
    # brute-force route for the same six numbers; the gains are Fock-side slope roots
    assert abs(check.fidelity(ScsSpec(1.0, 1, 0), 1.0, Scheme.AADAG) - 0.8) < 1e-12
    assert abs(check.gain(ScsSpec(1.0, 1, 0), Scheme.AADAG, 1.0, 2.0) - math.sqrt(2.0)) < 1e-12
    assert abs(check.gain(ScsSpec(1.0, 1, 0), Scheme.ADAG2, 1.5, 2.5) - 2.0) < 1e-12
    assert abs(check.qfi(ScsSpec(1.0, 1, 0), ()) - 4.0) < 1e-12
    assert abs(check.qfi(ScsSpec(1.0, 1, 0), Scheme.AADAG) - 5.6) < 1e-12
    assert abs(check.qfi(ScsSpec(1.0, 1, 0), Scheme.ADAG2) - 276.0 / 49.0) < 1e-12
    _pass("criterion-2", "six closed-form spot values, both routes")


def test_criterion_3_analytic_numeric_equivalence():
    checked = 0
    for d in DIMS:
        for k in range(d):
            for alpha in ALPHA_GRID:
                for s in Scheme:
                    for g in GAIN_GRID:
                        closed = analytic.scs_fidelity(alpha, g, d, k, s)
                        brute = check.fidelity(ScsSpec(alpha, d, k), g, s)
                        assert abs(closed - brute) <= 1e-8, (d, k, alpha, g, s)
                        checked += 1
                for s in ((), Scheme.AADAG, Scheme.ADAG2):
                    closed = analytic.scs_qfi(alpha, d, k, s)
                    brute = check.qfi(ScsSpec(alpha, d, k), s)
                    assert abs(closed - brute) <= 1e-8 * max(1.0, abs(closed)), (d, k, alpha, s)
                    checked += 1
    _pass("criterion-3", f"closed forms vs truncated-Fock brute force ({checked} cells)")


def test_criterion_4_proposition_suites(rng):
    n_checks = 0
    for _ in range(60):
        d = int(rng.integers(1, 6))
        k = int(rng.integers(0, d))
        alpha = float(rng.uniform(0.1, 2.0))
        beta = float(rng.uniform(0.1, 2.0))
        m = int(rng.integers(1, 5))
        word = list("a" * m + "s" * m)
        rng.shuffle(word)
        word = tuple("add" if c == "a" else "subtract" for c in word)
        x_h, x_c = amplify.coherent_pair(alpha, alpha, d, k, word)
        assert abs(x_h - x_c) <= 1e-10, ("balanced", d, k, alpha, word)
        adds = int(rng.integers(0, 5))
        subs = int(rng.integers(0, 5))
        word = list("a" * adds + "s" * subs)
        rng.shuffle(word)
        word = tuple("add" if c == "a" else "subtract" for c in word)
        x_h, x_c = amplify.coherent_pair(alpha, beta, d, k, word)
        assert abs(x_h - x_c) <= 1e-10, ("imbalanced", d, k, alpha, beta, word)
        n_checks += 2
    for word in analytic._IDENTITIES.values():  # the normal-ordering check's balanced words
        x_h, x_c = amplify.coherent_pair(1.1, 1.1, 3, 1, word)
        assert abs(x_h - x_c) <= 1e-10, ("balanced", word)
        n_checks += 1
    _pass("criterion-4", f"coherent-equivalence oracles on {n_checks} words")


def test_criterion_5_structural_invariants():
    lams = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    for d in (2, 3, 4, 5):
        for alpha in (0.5, 1.0, 2.0):
            trunc = fock.auto_trunc(alpha)
            cats = [states.scs_state(ScsSpec(alpha, d, k), trunc) for k in range(d)]
            hybs = [states.hes_state(HesSpec(alpha, d, k), trunc) for k in range(d)]
            for i in range(d):
                for j in range(d):
                    want = 1.0 if i == j else 0.0
                    assert abs(fock.inner(cats[i], cats[j]) - want) <= 1e-10
                    assert abs(fock.inner(hybs[i], hybs[j]) - want) <= 1e-10
            for k in range(d):
                p = states.photon_distribution(cats[k])
                off = sum(p[m] for m in range(p.size) if (m - k) % d != 0)
                assert off <= 1e-20
                for lam in lams:
                    assert abs(fock.quadrature_expect(cats[k], lam)) <= 1e-10
                    assert abs(fock.quadrature_expect(hybs[k], lam)) <= 1e-10
    _pass("criterion-5", "Gram identities, pseudo-number support, quadrature zeros")


def test_criterion_6_scheme_ordering():
    for alpha in ALPHA_GRID:
        g_a = analytic.hes_gain(alpha, Scheme.AADAG)
        g_2 = analytic.hes_gain(alpha, Scheme.ADAG2)
        assert g_2 > g_a, alpha
        f_a = analytic.hes_fidelity(alpha, g_a, Scheme.AADAG)
        f_2 = analytic.hes_fidelity(alpha, g_2, Scheme.ADAG2)
        assert f_a > f_2, alpha
    _pass("criterion-6", "fidelity and gain orderings on the amplitude grid")


def test_criterion_7a_ratio_band():
    # regime where add-then-subtract regains the Fisher advantage
    for alpha in (2.0, 2.2, 2.4):
        assert analytic.qfi_ratio(alpha, 5, 0) > 1.0
    _pass("criterion-7a", "d=5 k=0 Fisher ratio above 1 across the band")


def test_criterion_7b_gain_growth_at_small_amplitude():
    g_small = optimize.scs_gain(ScsSpec(0.2, 4, 3), Scheme.ADAG2)
    g_mid = optimize.scs_gain(ScsSpec(1.0, 4, 3), Scheme.ADAG2)
    assert g_small.argmax > g_mid.argmax
    _pass("criterion-7b-gain", "last index gain grows as amplitude shrinks")


def test_criterion_7b_fidelity_below_half():
    # Double addition on the last index at small amplitude: the fidelity stays
    # bounded away from 1 and sits at its number-state limit.  As alpha -> 0,
    # a-dagger^2 |C^3_4> -> |5>, and the target index is 1, so the best overlap
    # tends to F_inf = max_mu (mu^5/5!) / sum_{n = 1 mod 4} mu^n/n!
    # = 0.711622 at mu ~ 4.913 (gain sqrt(mu)/alpha ~ 11.08, inside (0, 20]).
    # The optimum approaches F_inf from above at O(alpha^4); it cannot fall
    # below 1/2 at any small alpha unless the gain search is capped near 6.
    alpha = 0.2
    g_small = optimize.scs_gain(ScsSpec(alpha, 4, 3), Scheme.ADAG2)
    assert not g_small.boundary_hit

    n = np.arange(1, 200, 4)  # Fock indices of the target's residue class

    def number_state_fidelity(mu):
        log_w = n * math.log(mu) - gammaln(n + 1.0)
        return math.exp(5 * math.log(mu) - gammaln(6.0) - np.logaddexp.reduce(log_w))

    f_inf = number_state_fidelity(ternary_argmax(number_state_fidelity, 1e-3, 50.0))
    assert 0.0 <= g_small.value - f_inf <= alpha**4, (g_small.value, f_inf)
    g_mid = optimize.scs_gain(ScsSpec(1.0, 4, 3), Scheme.ADAG2)
    assert g_small.value < g_mid.value
    brute = check.fidelity(ScsSpec(alpha, 4, 3), g_small.argmax, Scheme.ADAG2)
    assert abs(brute - g_small.value) <= 1e-8
    _pass("criterion-7b-fidelity", f"last-index double addition at amplitude {alpha}: "
          f"F = {g_small.value:.6f} at gain {g_small.argmax:.2f}, "
          f"number-state limit {f_inf:.6f}")


def test_criterion_7c_monotonicity_pattern():
    grid = np.arange(0.05, 3.001, 0.05)
    for k in (0, 1):
        vals = [analytic.scs_qfi(a, 2, k) for a in grid]
        assert all(b - a > -1e-12 for a, b in zip(vals, vals[1:]))
    vals = [analytic.scs_qfi(a, 5, 0) for a in grid]
    assert min(b - a for a, b in zip(vals, vals[1:])) < -1e-6
    _pass("criterion-7c", "Fisher information monotone at d=2, non-monotone at d=5")


def test_criterion_8_channel_agreement():
    gamma, trunc = 0.01, 30
    for d in (2, 3, 4):
        for alpha in (0.5, 1.0, 2.0):
            for s in Scheme:
                for spec in (ScsSpec(alpha, d, 0), ScsSpec(alpha, d, d - 1),
                             HesSpec(alpha, d, 0)):
                    p_sim, p_kraus, fid = channel.compare_sim_vs_kraus(spec, s, gamma, trunc)
                    assert abs(p_sim - p_kraus) <= 1e-8 * p_kraus, (spec, s)
                    assert fid >= 1.0 - 1e-10, (spec, s)
    for alpha in (0.5, 1.0, 2.0):
        for s in Scheme:
            probs = [
                channel.scheme_success_prob(
                    states.hes_state(HesSpec(alpha, 4, k), trunc), s, gamma
                )
                for k in range(4)
            ]
            assert max(probs) - min(probs) <= 1e-12
    _pass("criterion-8", "circuit vs operator probabilities and states, index uniformity")


def test_criterion_9_addition_overlap():
    from conftest import create, hybrid_matrix

    n = 90
    for alpha in (0.5, 1.0, 2.0, 3.0):
        for beta in (0.5, 1.0, 2.0, 3.0):
            for d in (2, 3, 5):
                for m in range(5):
                    k = 1 % d
                    l = (k + m) % d
                    ket = hybrid_matrix(alpha, d, k, n)
                    bra = hybrid_matrix(beta, d, l, n)
                    added = ket
                    for _ in range(m):
                        added = added @ create(n).T
                    word = ("add",) * m
                    norm = 1.0 / norm_factor(ScsSpec(alpha, 1, 0), word)
                    brute = np.vdot(bra, added) / norm
                    got = math.sqrt(analytic.hes_fidelity(alpha, beta / alpha, word))
                    assert abs(got - brute) <= 1e-8, (alpha, beta, d, m)
    _pass("criterion-9", "m-addition overlap: word closed form vs brute force, m <= 4")


def test_criterion_9_optimal_beta_bound():
    # Three additions on amplitude 2: the overlap squared is
    # beta^(2m) exp(-(alpha - beta)^2) / (m! L_m(-alpha^2)); stationarity gives
    # beta^2 - alpha beta - m = 0, so beta* = 3 and the fidelity there is
    # 3^6 / (e 3! L_3(-4)) = 729/(286 e) = 0.937707.
    alpha, m = 2.0, 3
    opt = optimize.scs_gain(ScsSpec(alpha, 1, 0), ("add",) * m)
    beta, fid = alpha * opt.argmax, opt.value
    beta_star = 0.5 * (alpha + math.sqrt(alpha**2 + 4 * m))
    f_star = (beta_star ** (2 * m) * math.exp(-((alpha - beta_star) ** 2))
              / (math.factorial(m) * eval_laguerre(m, -alpha**2)))
    assert abs(beta - beta_star) <= 1e-6, beta
    assert abs(fid - f_star) <= 1e-9, (fid, f_star)
    _pass("criterion-9-beta", f"three additions on amplitude {alpha}: optimal target "
          f"amplitude {beta:.6f}, fidelity {fid:.6f} = 729/(286 e)")


def test_criterion_10_normal_ordering_and_qfi_forms():
    report = analytic.verify_normal_ordering_identities(24)
    assert len(report) == 4
    for name, dev in report.items():
        assert dev <= 1e-9, name
    # amplified Fisher information closed forms against 4 Var(n), settling the
    # squared-term prefactor: only the factor-4 form matches the variance route
    for d in (2, 3, 4, 5):
        for k in range(d):
            for alpha in (0.5, 1.0, 2.0, 2.8):
                for s in Scheme:
                    closed = analytic.scs_qfi(alpha, d, k, s)
                    brute = check.qfi(ScsSpec(alpha, d, k), s)
                    assert abs(closed - brute) <= 1e-8 * max(1.0, abs(closed))
    _pass("criterion-10", "operator identities to 1e-9, Fisher forms vs variance route")


def test_criterion_11_optimizer_vs_grid_scan():
    gg = np.arange(1e-4, 20.00005, 1e-4)
    for d in DIMS:
        for k in range(d):
            for s in Scheme:
                for alpha in (0.5, 1.0, 2.0):
                    vals = analytic.scs_fidelity(alpha, gg, d, k, s)
                    i = int(np.argmax(vals))
                    res = optimize.scs_gain(ScsSpec(alpha, d, k), s)
                    assert abs(res.argmax - gg[i]) <= 1e-3, (d, k, s, alpha, res, gg[i])
                    # refine the scan around its argmax so the value comparison
                    # is not dominated by the 1e-4 discretization of the grid
                    fine = np.arange(max(gg[i] - 1.5e-4, 1e-7), gg[i] + 1.5e-4, 1e-7)
                    best = float(np.max(analytic.scs_fidelity(alpha, fine, d, k, s)))
                    assert abs(res.value - best) <= 1e-8, (d, k, s, alpha)
    _pass("criterion-11", "slope-root gains match 1e-4 grid scans (argmax 1e-3, value 1e-8)")
