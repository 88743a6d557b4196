import math

import numpy as np
import pytest

from catamp import amplify, analytic, fock, states
from catamp.amplify import AADAG, ADAG2
from catamp.errors import DegenerateStateError
from catamp.states import HesSpec, ScsSpec

from conftest import coherent_column, create, destroy
from oracles import norm_factor


def test_named_words():
    assert AADAG == ("subtract", "add")
    assert ADAG2 == ("add", "add")
    assert amplify.rises(AADAG)[0] == 0
    assert amplify.rises(ADAG2)[0] == 2


def test_apply_word_fixes_number_state():
    for k in (0, 3):
        out, nrm = amplify.apply_word(fock.basis(k, 12), AADAG)
        assert abs(nrm - (k + 1)) < 1e-12
        assert abs(abs(fock.inner(fock.basis(k, 12), out)) - 1.0) < 1e-12


def test_apply_word_coherent_norm():
    _, nrm = amplify.apply_word(fock.coherent(1.0, 50), AADAG)
    assert abs(nrm**2 - 5.0) < 1e-10


def test_apply_word_subtract_vacuum_raises():
    with pytest.raises(DegenerateStateError):
        amplify.apply_word(fock.basis(0, 4), ("subtract",))


def test_apply_word_never_leaks():
    # full top occupation: each addition widens the vector, so |5> lands on |7>
    v, _ = fock.normalize(fock.FockVector(np.ones(6)))
    out, nrm = amplify.apply_word(v, ADAG2)
    assert out.trunc == 8
    assert abs(out.amps[7] * nrm - math.sqrt(42.0 / 6.0)) < 1e-14


QUADRATIC_FORM_WORDS = [AADAG, ADAG2, ("add", "subtract"), ("subtract", "subtract", "add", "add")]


def test_raw_norm_equals_quadratic_form(rng):
    # |W psi|^2 == <psi| W-dagger W |psi> evaluated with dense matrices
    n = 30
    mats = {"add": create(n + 8), "subtract": destroy(n + 8)}
    for word in QUADRATIC_FORM_WORDS:
        amps = rng.normal(size=n) + 1j * rng.normal(size=n)
        v, _ = fock.normalize(fock.FockVector(amps))
        _, nrm = amplify.apply_word(v, word)
        col = np.zeros(n + 8, dtype=complex)
        col[:n] = v.amps
        m = np.eye(n + 8)
        for op in word:
            m = m @ mats[op]
        assert abs(nrm**2 - np.linalg.norm(m @ col) ** 2) < 1e-10


def test_hes_amplified_raw_norms():
    for d in (2, 3, 4, 5):
        for k in range(d):
            _, nrm = amplify.apply_word(states.hes_state(HesSpec(1.0, d, k), 40), AADAG)
            assert abs(nrm - math.sqrt(5.0)) < 1e-10
            _, nrm = amplify.apply_word(states.hes_state(HesSpec(1.0, d, k), 40), ADAG2)
            assert abs(nrm - math.sqrt(7.0)) < 1e-10


def test_hes_amplified_overlap_matches_closed_form():
    # |<H^{k+2}_{g a}| amplified>|^2 against the double-addition fidelity expression
    from catamp import analytic

    for alpha in (0.6, 1.0, 1.7):
        for g in (0.9, 1.3, 1.8):
            d, k = 4, 1
            trunc = fock.auto_trunc(max(alpha, g * alpha), additions=2)
            amped, _ = amplify.apply_word(states.hes_state(HesSpec(alpha, d, k), trunc), ADAG2)
            target = states.hes_state(HesSpec(g * alpha, d, (k + 2) % d), trunc + 2)
            got = abs(fock.inner(target, amped)) ** 2
            want = analytic.hes_fidelity(alpha, g, "adag2")
            assert abs(got - want) < 1e-8


def test_scs_amplified_small_amplitude_fixed_point():
    out, _ = amplify.scs_amplified(ScsSpec(1e-4, 3, 1), AADAG, 20)
    assert abs(abs(out.amps[1]) - 1.0) < 1e-6


def test_scs_amplified_double_addition_escapes_low_qudits():
    d = 4
    out, _ = amplify.scs_amplified(ScsSpec(1e-4, d, d - 2), ADAG2, 20)
    assert abs(abs(out.amps[d]) - 1.0) < 1e-6
    low = states.scs_state(ScsSpec(1e-4, d, 0), out.trunc)
    assert abs(fock.inner(low, out)) ** 2 < 1e-6


def test_rises_net_change_and_named_offsets():
    assert amplify.rises(AADAG) == (0, (0, 0))
    assert amplify.rises(ADAG2) == (2, (0, 1))
    assert amplify.rises(("add", "subtract")) == (0, (-1, -1))
    words = QUADRATIC_FORM_WORDS + list(analytic._IDENTITIES.values()) + [
        ("add", "subtract", "add"), ("subtract",) * 3, ("add", "add", "add", "subtract")]
    for word in words:
        assert amplify.rises(word)[0] == word.count("add") - word.count("subtract"), word
    with pytest.raises(ValueError, match="unknown ladder op"):
        amplify.rises(("add", "hop"))


def test_overlap_polynomial_is_the_normal_ordering():
    # a balanced word is sum_j c_j a-dagger^j a^j, which multiplies |m> by P(m) = sum_j c_j m^(j);
    # the c_j written out by hand, highest j first
    want = {
        "sub_add3_sub3_add": (1.0, 7.0, 9.0, 0.0, 0.0),
        "sub_add2_sub2_add": (1.0, 5.0, 4.0, 0.0),
        "sub2_add2_sub2_add2": (1.0, 12.0, 38.0, 32.0, 4.0),
        "sub2_add_sub_add2": (1.0, 8.0, 14.0, 4.0),
    }
    assert set(want) == set(analytic._IDENTITIES)
    for name, word in analytic._IDENTITIES.items():
        assert amplify.falling(amplify.overlap_rises(word)) == want[name], name
    assert amplify.falling(amplify.overlap_rises(AADAG)) == (1.0, 1.0)
    assert amplify.falling(amplify.overlap_rises(ADAG2)) == (1.0,)
    with pytest.raises(ValueError, match="no polynomial overlap"):
        amplify.overlap_rises(("subtract",))


def test_norm_coefficients_match_dense_quadratic_form():
    # <m| W-dagger W |m> = sum_j c_j m (m-1) .. (m-j+1), and W-dagger W is diagonal
    n = 30
    mats = {"add": create(n + 8), "subtract": destroy(n + 8)}
    assert amplify.falling(amplify.rises(AADAG)[1]) == (1.0, 3.0, 1.0)
    assert amplify.falling(amplify.rises(ADAG2)[1]) == (1.0, 4.0, 2.0)
    for word in QUADRATIC_FORM_WORDS:
        w = np.eye(n + 8)
        for op in word:
            w = w @ mats[op]
        gram = (w.T @ w)[:n, :n]
        c = amplify.falling(amplify.rises(word)[1])
        m = np.arange(n, dtype=float)
        want = sum(cj * np.prod([m - i for i in range(len(c) - 1 - j)], axis=0)
                   for j, cj in enumerate(c))
        assert np.allclose(gram, np.diag(want), rtol=1e-13, atol=1e-9), word


def test_norm_factor_of_an_annihilated_state_raises():
    # the class sum is exactly 0 there, so 1/sqrt of it divides by zero
    for word in (("subtract",), ("subtract", "subtract", "add")):
        with pytest.raises(ZeroDivisionError):
            norm_factor(ScsSpec(0.0, 1, 0), word)
    with pytest.raises(ZeroDivisionError):
        norm_factor(ScsSpec(0.0, 3, 0), ("subtract",))
    with pytest.raises(ZeroDivisionError):
        norm_factor(ScsSpec(0.0, 3, 1), ("subtract",) * 2)


def test_scs_amplified_raw_norm_matches_norm_factors():
    # raw norm on the unit-norm qudit equals N_bare / N_amplified
    for d in (1, 2, 3, 4):
        for k in range(d):
            spec = ScsSpec(0.9, d, k)
            _, nrm = amplify.scs_amplified(spec, AADAG, 50)
            want = norm_factor(spec, ()) / norm_factor(spec, AADAG)
            assert abs(nrm - want) < 1e-10


def hes_norm_factor(alpha, word):
    """A hybrid qudit's norm factor for every d, k: the coherent state's, at d = 1."""
    return norm_factor(ScsSpec(alpha, 1, 0), word)


def test_hes_norm_factor_closed_forms():
    assert hes_norm_factor(0.0, AADAG) == 1.0
    assert abs(hes_norm_factor(1.0, ADAG2) - 1.0 / math.sqrt(7.0)) < 1e-14


def test_hes_norm_factor_general_word():
    # subtract-then-add is the number operator: <n^2> = alpha^4 + alpha^2
    got = hes_norm_factor(1.0, ("add", "subtract"))
    assert abs(got - 1.0 / math.sqrt(2.0)) < 1e-10


def test_hes_norm_factor_general_matches_closed_for_named_words():
    for alpha in (0.5, 1.0, 2.0):
        trunc = fock.auto_trunc(alpha, additions=2)
        v = fock.coherent(alpha, trunc)
        for word in (AADAG, ADAG2):
            _, nrm = amplify.apply_word(v, word)
            assert abs(hes_norm_factor(alpha, word) - 1.0 / nrm) < 1e-10


def test_scs_norm_factor_amplified_d1_reduces_to_coherent():
    for alpha in (0.5, 1.0, 2.0):
        got = norm_factor(ScsSpec(alpha, 1, 0), AADAG)
        want = 1.0 / math.sqrt(alpha**4 + 3 * alpha**2 + 1)  # <alpha| (a a-dagger)^2 |alpha>^-1/2
        assert abs(got - want) < 1e-12


def test_scs_norm_factor_amplified_matches_bare_sum_norm():
    # closed form vs the norm of the word applied to the unnormalized superposition
    for d in (2, 3):
        for k in range(d):
            for word in (AADAG, ADAG2):
                alpha = 1.0
                n = 60
                w = np.exp(2j * np.pi / d)
                acc = np.zeros(n, dtype=complex)
                for m in range(d):
                    acc += w ** (-k * m) * coherent_column(alpha * w**m, n)
                mats = {"add": create(n), "subtract": destroy(n)}
                col = acc
                for op in reversed(word):
                    col = mats[op] @ col
                got = norm_factor(ScsSpec(alpha, d, k), word)
                assert abs(got - 1.0 / np.linalg.norm(col)) < 1e-10


def test_norm_factors_match_exact_series_at_small_amplitude():
    # squared norm of W sum_n w^{-kn} |alpha w^n> is d^2 e^{-x} sum_{m = k mod d} c(m) x^m / m!
    # with x = alpha^2 and c(m) = 1 (bare), (m+1)^2 (a a-dagger), (m+1)(m+2) (a-dagger^2)
    weights = {
        (): lambda m: 1,
        AADAG: lambda m: (m + 1) ** 2,
        ADAG2: lambda m: (m + 1) * (m + 2),
    }
    for alpha in (1e-9, 1e-4, 0.05, 0.3, 0.49):
        x = alpha * alpha
        for d in range(1, 6):
            for k in range(d):
                spec = ScsSpec(alpha, d, k)
                for word, c in weights.items():
                    total = math.fsum(c(m) * x**m / math.factorial(m) for m in range(k, 100, d))
                    want = 1.0 / math.sqrt(d * d * math.exp(-x) * total)
                    got = norm_factor(spec, word)
                    assert abs(got - want) <= 1e-12 * want, (alpha, d, k, word)


def test_scs_norm_factor_amplified_depends_on_k():
    a = norm_factor(ScsSpec(0.5, 2, 0), AADAG)
    b = norm_factor(ScsSpec(0.5, 2, 1), AADAG)
    assert abs(a - b) > 1e-3


def test_scs_norm_factor_general_word_route():
    # a word outside the named schemes, closed form against dense matrices
    word = ("add", "subtract", "add")
    spec = ScsSpec(0.8, 3, 2)
    n = 60
    w = np.exp(2j * np.pi / 3)
    acc = np.zeros(n, dtype=complex)
    for m in range(3):
        acc += w ** (-2 * m) * coherent_column(0.8 * w**m, n)
    mats = {"add": create(n), "subtract": destroy(n)}
    col = acc
    for op in reversed(word):
        col = mats[op] @ col
    got = norm_factor(spec, word)
    assert abs(got - 1.0 / np.linalg.norm(col)) < 1e-10


def test_scs_norm_factor_general_word_matches_exact_series():
    # a-dagger a a-dagger |m> = (m+1)^{3/2} |m+1>: squared raw norm d^2 e^{-x} sum_{m = k} (m+1)^3 x^m/m!
    word = ("add", "subtract", "add")
    for alpha in (1e-6, 1e-4, 1e-3, 0.3, 1.5):
        x = alpha * alpha
        for d in range(1, 6):
            for k in range(d):
                total = math.fsum((m + 1) ** 3 * x**m / math.factorial(m) for m in range(k, 100, d))
                want = 1.0 / math.sqrt(d * d * math.exp(-x) * total)
                got = norm_factor(ScsSpec(alpha, d, k), word)
                assert abs(got - want) <= 1e-12 * want, (alpha, d, k)


def test_subtraction_word_maps_hybrid_qudits_exactly():
    d = 4
    for k in range(d):
        for m in (1, 2, 3):
            spec = HesSpec(1.1, d, k)
            out, _ = amplify.apply_word(states.hes_state(spec, 40), ("subtract",) * m)
            target = states.hes_state(HesSpec(1.1, d, (k - m) % d), 40)
            pad = np.zeros((d, 40), complex)
            pad[:, : out.trunc] = out.amps[:, :40]
            fid = abs(np.vdot(target.amps, pad)) ** 2
            assert fid > 1.0 - 1e-12


def test_cv_words_preserve_block_structure():
    spec = HesSpec(1.0, 3, 1)
    base = states.hes_state(spec, 30)
    out, _ = amplify.apply_word(states.hes_state(spec, 30), ADAG2)
    for n in range(3):
        # each block is the word applied to that block alone, up to one global scale
        raw = amplify._apply_word_raw(fock.FockVector(base.amps[n]), ADAG2)
        ratio = out.amps[n][np.abs(raw.amps) > 1e-12] / raw.amps[np.abs(raw.amps) > 1e-12]
        assert np.max(np.abs(ratio - ratio[0])) < 1e-12


def test_prop1_number_operator():
    x_h, x_c = amplify.coherent_pair(1.2, 1.2, 3, 2, ("add", "subtract"))
    assert abs(x_h - 1.44) < 1e-10
    assert abs(x_c - 1.44) < 1e-10


def test_prop1_identity_word():
    x_h, x_c = amplify.coherent_pair(0.9, 0.9, 4, 1, ())
    assert abs(x_h - 1.0) < 1e-12
    assert abs(x_c - 1.0) < 1e-12


def test_prop1_fourth_moment():
    x_h, x_c = amplify.coherent_pair(1.0, 1.0, 3, 0, ("add", "add", "subtract", "subtract"))
    assert abs(x_h - 1.0) < 1e-10
    assert abs(x_c - 1.0) < 1e-10


def test_prop1_random_balanced_words(rng):
    for _ in range(25):
        d = int(rng.integers(1, 6))
        k = int(rng.integers(0, d))
        alpha = float(rng.uniform(0.2, 2.0))
        m = int(rng.integers(1, 5))
        word = list("a" * m + "s" * m)
        rng.shuffle(word)
        word = tuple("add" if c == "a" else "subtract" for c in word)
        x_h, x_c = amplify.coherent_pair(alpha, alpha, d, k, word)
        assert abs(x_h - x_c) < 1e-10


def test_prop2_double_addition():
    alpha, beta, d, k = 1.0, 1.5, 4, 1
    x_h, x_c = amplify.coherent_pair(alpha, beta, d, k, ("add", "add"))
    # dense-matrix coherent matrix element
    n = 60
    col = create(n) @ create(n) @ coherent_column(alpha, n)
    brute = np.vdot(coherent_column(beta, n), col)
    assert abs(x_c - brute) < 1e-10
    assert abs(x_h - brute) < 1e-10


def test_prop2_identity_is_overlap_one():
    x_h, x_c = amplify.coherent_pair(1.3, 1.3, 3, 2, ())
    assert abs(x_h - 1.0) < 1e-10
    assert abs(x_c - 1.0) < 1e-10


def test_prop2_add_subtract_matches_gain_expression():
    # <H^k_{g a}| a a-dagger |H^k_a> = (1 + g a^2) exp[-a^2 (g-1)^2 / 2]
    alpha, g = 1.1, 1.4
    x_h, _ = amplify.coherent_pair(alpha, g * alpha, 3, 1, ("subtract", "add"))
    want = (1.0 + g * alpha * alpha) * math.exp(-0.5 * alpha * alpha * (g - 1.0) ** 2)
    assert abs(x_h - want) < 1e-10


def test_prop2_random_words(rng):
    for _ in range(25):
        d = int(rng.integers(1, 6))
        k = int(rng.integers(0, d))
        alpha = float(rng.uniform(0.2, 2.0))
        beta = float(rng.uniform(0.2, 2.0))
        adds = int(rng.integers(0, 5))
        subs = int(rng.integers(0, 5))
        word = list("a" * adds + "s" * subs)
        rng.shuffle(word)
        word = tuple("add" if c == "a" else "subtract" for c in word)
        x_h, x_c = amplify.coherent_pair(alpha, beta, d, k, word)
        assert abs(x_h - x_c) < 1e-10
