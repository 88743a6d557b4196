"""Amplification scheme words and their action on cat-state and hybrid qudits.

A scheme word is a finite tuple over {"add", "subtract"} read like an operator
product: the rightmost entry acts first.  The two named schemes are

    AADAG = ("subtract", "add")   addition first, then subtraction  (a a-dagger)
    ADAG2 = ("add", "add")        two successive additions          (a-dagger^2)

The word is the only place a scheme's action is written down: ``rises`` maps
it to W |m> = f(m) |m + l> (Fiurasek, PRA 80, 053822 (2009)), and every closed
form follows from f(m)^2 and the overlap polynomial by ``class_poly``.

Words applied to a hybrid state (a row stack) act on the bosonic mode of
every discrete block, with a single global renormalization.
"""

from __future__ import annotations

import functools
from collections import Counter

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


@functools.cache
def rises(word: SchemeWord) -> tuple[int, tuple[int, ...]]:
    """(l, offsets) with W |m> = f(m) |m + l>, f(m)^2 = prod (m + 1 + i) over offsets i.

    Rightmost first, an addition at level c adds offset c, a subtraction from c to
    c - 1 adds c - 1: a a-dagger gives (0, (0, 0)), a-dagger^2 (2, (0, 1)).
    """
    level, offsets = 0, []
    for op in reversed(word):
        if op == ADD:
            offsets.append(level)
            level += 1
        elif op == SUBTRACT:
            level -= 1
            offsets.append(level)
        else:
            raise ValueError(f"unknown ladder op {op!r}")
    return level, tuple(sorted(offsets))


@functools.cache
def overlap_rises(word: SchemeWord) -> tuple[int, ...]:
    """Offsets of the overlap polynomial P(m) = f(m) sqrt(m! / (m + l)!): the word's
    offsets less 0 .. l-1, halved; (0,) for a a-dagger and () for a-dagger^2."""
    l, offsets = rises(word)
    rest = sorted((Counter(offsets) - Counter(range(l))).elements())
    if l < 0 or rest[::2] != rest[1::2]:
        raise ValueError(f"word {word} has no polynomial overlap with a target qudit")
    return tuple(rest[::2])


@functools.cache
def falling(offsets: tuple[int, ...]) -> tuple[float, ...]:
    """c_J .. c_0 with prod_i (m + 1 + i) = sum_j c_j m^(j), m^(j) = m (m-1) .. (m-j+1), by
    (m + a) m^(j) = m^(j+1) + (j + a) m^(j): (1, 3, 1) for a a-dagger, (1, 4, 2) for a-dagger^2."""
    c = [1]  # lowest j first
    for i in offsets:
        c = [(j + 1 + i) * cj + (c[j - 1] if j else 0) for j, cj in enumerate(c)] + [c[-1]]
    return tuple(float(cj) for cj in reversed(c))


def class_poly(offsets: tuple[int, ...], x, k: int, d: int):
    """sum_j (c_j x^j) S_{k-j}(x), c = ``falling(offsets)``, highest j first: d e^-x times
    sum prod_i (m + 1 + i) x^m / m! over m = k (mod d); at d = 1 every S_j is 1.  Factors
    of exactly 1 are left out, which changes no bit and spares array temporaries."""
    c = falling(offsets)
    top = len(c) - 1
    sums = states.mod_exp_sum(tuple(range(k - top, k + 1)), x, d)
    powers = [1.0, x]
    while len(powers) <= top:
        powers.append(powers[-1] * x)
    terms = [s if j == 0 and cj == 1.0 else (powers[j] if cj == 1.0 else cj * powers[j]) * s
             for j, cj, s in zip(range(top, -1, -1), c, sums)]
    return sum(terms[1:], terms[0])


def word_counts(word: SchemeWord) -> tuple[int, int]:
    adds = sum(1 for op in word if op == ADD)
    subs = len(word) - adds
    return adds, subs


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


def scs_amplified(spec: ScsSpec, word: SchemeWord, trunc: int) -> tuple[FockVector, float]:
    """Amplified cat-state qudit and the pre-normalization norm of the raw image."""
    return apply_word(states.scs_state(spec, trunc), word)


def _validate_poly(poly: LadderPoly) -> LadderPoly:
    poly = tuple((complex(c), tuple(w)) for c, w in poly)
    if not poly:
        raise ValueError("polynomial needs at least one term")
    for _, word in poly:
        rises(word)  # rejects an unknown ladder op
    return poly


def prop1_pair(spec: HesSpec, poly: LadderPoly) -> tuple[complex, complex]:
    """Expectation of a balanced ladder polynomial on a hybrid qudit vs |alpha>.

    Every term must contain equally many additions and subtractions; the two
    returned values agree (the hybrid qudit is locally coherent-like).
    """
    poly = _validate_poly(poly)
    for _, word in poly:
        if rises(word)[0] != 0:
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
    changes = {rises(word)[0] for _, word in poly}
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
