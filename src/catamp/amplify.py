"""Amplification scheme words and their action on cat-state and hybrid qudits.

A scheme word is a finite tuple over {"add", "subtract"} read like an operator
product: the rightmost entry acts first.  The two named schemes are

    AADAG = ("subtract", "add")   addition first, then subtraction  (a a-dagger)
    ADAG2 = ("add", "add")        two successive additions          (a-dagger^2)

Words applied to a hybrid state (a row stack) act on the bosonic mode of
every discrete block, with a single global renormalization.
"""

from __future__ import annotations

import numpy as np

from . import fock, states
from .errors import DegenerateStateError
from .fock import ADD, SUBTRACT, FockVector
from .states import HesSpec, ScsSpec

SchemeWord = tuple[str, ...]

AADAG: SchemeWord = (SUBTRACT, ADD)
ADAG2: SchemeWord = (ADD, ADD)

#: polynomial in ladder operators: sequence of (coefficient, word) terms
LadderPoly = tuple[tuple[complex, SchemeWord], ...]


def word_counts(word: SchemeWord) -> tuple[int, int]:
    adds = sum(1 for op in word if op == ADD)
    subs = len(word) - adds
    return adds, subs


def net_change(word: SchemeWord) -> int:
    """Net photon-number change l = (#add - #subtract)."""
    adds, subs = word_counts(word)
    return adds - subs


def _apply_word_raw(v: FockVector, word: SchemeWord) -> FockVector:
    adds, _ = word_counts(word)
    out = v.padded(v.trunc + adds)  # headroom so creation never leaks
    for op in reversed(word):
        out = fock.ladder(out, op)
    return fock.check_leak(out)


def apply_word(v: FockVector, word: SchemeWord) -> tuple[FockVector, float]:
    """Apply a scheme word; returns (normalized result, pre-normalization norm)."""
    raw = _apply_word_raw(v, word)
    try:
        return fock.normalize(raw)
    except DegenerateStateError as exc:
        raise DegenerateStateError(f"word {word} annihilated the state") from exc


def apply_poly(v: FockVector, poly: LadderPoly) -> FockVector:
    """Apply a ladder polynomial (unnormalized linear combination of words)."""
    width = v.trunc + max((word_counts(w)[0] for _, w in poly), default=0)
    acc = np.zeros(v.amps.shape[:-1] + (width,), dtype=complex)
    for coef, word in poly:
        term = _apply_word_raw(v, word).padded(width)
        acc += complex(coef) * term.amps
    return FockVector(acc)


def hes_amplified(spec: HesSpec, word: SchemeWord, trunc: int) -> tuple[FockVector, float]:
    """Amplified hybrid qudit and the pre-normalization norm of the raw image."""
    return apply_word(states.hes_state(spec, trunc), word)


def scs_amplified(spec: ScsSpec, word: SchemeWord, trunc: int) -> tuple[FockVector, float]:
    """Amplified cat-state qudit and the pre-normalization norm of the raw image."""
    return apply_word(states.scs_state(spec, trunc), word)


def hes_norm_factor_amplified(alpha: float, word: SchemeWord) -> float:
    """Normalization factor of a word applied to a hybrid qudit (d, k independent).

    Closed forms for the two named schemes; general words are evaluated as
    1/sqrt(<alpha| W-dagger W |alpha>) on an automatically sized space.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    a2 = alpha * alpha
    if word == AADAG:
        return 1.0 / np.sqrt(a2 * a2 + 3 * a2 + 1.0)
    if word == ADAG2:
        return 1.0 / np.sqrt(a2 * a2 + 4 * a2 + 2.0)
    trunc = fock.auto_trunc(alpha, additions=word_counts(word)[0])
    raw = _apply_word_raw(fock.coherent(alpha, trunc), word)
    nrm = raw.norm()
    if nrm <= 0.0:
        raise DegenerateStateError(f"word {word} annihilates the coherent state")
    return 1.0 / nrm


def scs_norm_factor_amplified(spec: ScsSpec, word: SchemeWord) -> float:
    """Normalization factor of a word applied to the bare cat-state superposition.

    For the named schemes this is
        1/sqrt(d sum_n w^{-kn} p(w^n) exp[-alpha^2 (1 - w^n)])
    with p(x) = alpha^4 x^2 + 3 alpha^2 x + 1 (add-then-subtract) or
    alpha^4 x^2 + 4 alpha^2 x + 2 (double addition); other words are evaluated
    numerically on the unnormalized superposition.  Unlike the hybrid case the
    value depends on both d and k.
    """
    a, d, k = spec.alpha, spec.d, spec.k
    w = states.omega(d)
    if word in (AADAG, ADAG2):
        c1, c0 = (3.0, 1.0) if word == AADAG else (4.0, 2.0)
        terms = np.array(
            [
                w ** (-k * n)
                * (a**4 * w ** (2 * n) + c1 * a * a * w**n + c0)
                * np.exp(-a * a * (1.0 - w**n))
                for n in range(d)
            ]
        )
        s = terms.sum()
        if abs(s.imag) > 1e-12 * max(1.0, np.abs(terms).sum()):
            raise ArithmeticError(f"norm-factor sum has imaginary residue {s.imag:.3e}")
        val = d * s.real
        if val < 1e-300:
            raise DegenerateStateError(
                f"amplified-superposition norm degenerates at alpha={a}, d={d}, k={k}"
            )
        return 1.0 / np.sqrt(val)
    # raw (unnormalized) superposition sum_n w^{-kn} |alpha w^n> in Fock space
    trunc = fock.auto_trunc(a, additions=word_counts(word)[0])
    acc = np.zeros(trunc, dtype=complex)
    for n in range(d):
        acc += w ** (-k * n) * fock.coherent_amps(a * w**n, trunc)
    raw = _apply_word_raw(FockVector(acc), word)
    nrm = raw.norm()
    if nrm <= 0.0:
        raise DegenerateStateError(f"word {word} annihilates the superposition")
    return 1.0 / nrm


def _validate_poly(poly: LadderPoly) -> LadderPoly:
    poly = tuple((complex(c), tuple(w)) for c, w in poly)
    if not poly:
        raise ValueError("polynomial needs at least one term")
    for _, word in poly:
        for op in word:
            if op not in (ADD, SUBTRACT):
                raise ValueError(f"unknown ladder op {op!r}")
    return poly


def prop1_pair(spec: HesSpec, poly: LadderPoly) -> tuple[complex, complex]:
    """Expectation of a balanced ladder polynomial on a hybrid qudit vs |alpha>.

    Every term must contain equally many additions and subtractions; the two
    returned values agree (the hybrid qudit is locally coherent-like).
    """
    poly = _validate_poly(poly)
    for _, word in poly:
        if net_change(word) != 0:
            raise ValueError(f"term {word} is not balanced")
    max_adds = max(word_counts(w)[0] for _, w in poly)
    trunc = fock.auto_trunc(spec.alpha, additions=max_adds)
    hes = states.hes_state(spec, trunc)
    x_hes = fock.inner(hes, apply_poly(hes, poly))
    coh = fock.coherent(spec.alpha, trunc)
    x_coh = fock.inner(coh, apply_poly(coh, poly))
    return x_hes, x_coh


def prop2_pair(
    alpha: float, beta: float, d: int, k: int, poly: LadderPoly
) -> tuple[complex, complex]:
    """Cross matrix element of a fixed-imbalance ladder polynomial.

    Every term must share the same net photon change l; the bra is the hybrid
    qudit with index k + l (mod d) and amplitude beta.  Returns
    (<H^{k+l}_beta| Q |H^k_alpha>, <beta| Q |alpha>), which agree.
    """
    poly = _validate_poly(poly)
    changes = {net_change(word) for _, word in poly}
    if len(changes) != 1:
        raise ValueError(f"terms have mixed net photon change: {sorted(changes)}")
    l = changes.pop()
    max_adds = max(word_counts(w)[0] for _, w in poly)
    trunc = fock.auto_trunc(max(alpha, beta), additions=max_adds)
    ket = states.hes_state(HesSpec(alpha, d, k), trunc)
    bra = states.hes_state(HesSpec(beta, d, (k + l) % d), trunc)
    x_hes = fock.inner(bra, apply_poly(ket, poly))
    coh_a = fock.coherent(alpha, trunc)
    coh_b = fock.coherent(beta, trunc)
    x_coh = fock.inner(coh_b, apply_poly(coh_a, poly))
    return x_hes, x_coh
