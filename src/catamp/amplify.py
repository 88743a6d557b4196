"""Amplification scheme words and their action on cat-state and hybrid qudits.

A scheme word is a finite tuple over {"add", "subtract"} read like an operator
product: the rightmost entry acts first.  The two named schemes are

    AADAG = ("subtract", "add")   addition first, then subtraction  (a a-dagger)
    ADAG2 = ("add", "add")        two successive additions          (a-dagger^2)

The word is the only place a scheme's action is written down: ``rises`` maps
it to W |m> = f(m) |m + l> (Fiurasek, PRA 80, 053822 (2009)), and every closed
form follows from f(m)^2 and the overlap polynomial by ``class_poly``.  Its
class sums are positive at every point: the series ``states.class_sum``, with
the word's offsets in its coefficients, where x (1 - cos 2 pi / d) < 45, and
past that bound (at d = 1 everywhere) the full sum's closed form
sum_q c_q x^q over the falling-factorial coefficients c of ``falling``.

Words applied to a hybrid state (a row stack) act on the bosonic mode of
every discrete block, with a single global renormalization.
"""

from __future__ import annotations

import functools
import math
from collections import Counter

import numpy as np

from . import fock, states
from .errors import DegenerateStateError
from .fock import ADD, SUBTRACT, FockVector
from .states import HesSpec, ScsSpec

SchemeWord = tuple[str, ...]

AADAG: SchemeWord = (SUBTRACT, ADD)
ADAG2: SchemeWord = (ADD, ADD)


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
    """d e^-x sum prod_i (m + 1 + i) x^m / m! over m = k (mod d), at a float or an array
    x >= 0.  Where x (1 - cos 2 pi / d) < 45 (``states._near``) it is the positive
    series ``states.class_sum``, with the offsets in its coefficients.  Past that
    bound, and at every x when d = 1, it is sum_q c_q x^q, c = ``falling(offsets)``
    highest q first: the class sum is (1/d) sum_n w^{-kn} times the full sum
    e^(x w^n) sum_q c_q (x w^n)^q, and every n != 0 term is below e^-45 of the
    n = 0 one, so that closed form is exact there to e^-45.  Each point takes its
    own route, so its value does not depend on the other points of the call; the
    exponent and mantissa of every route come from ``states._class_parts``."""
    xs = np.asarray(x, dtype=float)
    if xs.size and not (xs.min() >= 0.0 and xs.max() < math.inf):
        raise ValueError("x must be finite and >= 0")
    out = states._composed(xs, *states._class_parts(k % d, xs, d, offsets, falling(offsets)))
    return out if isinstance(x, np.ndarray) else float(out)


def _apply_word_raw(v: FockVector, word: SchemeWord) -> FockVector:
    for op in reversed(word):
        v = fock.ladder(v, op)
    return v


def apply_word(v: FockVector, word: SchemeWord) -> tuple[FockVector, float]:
    """Apply a scheme word; returns (normalized result, pre-normalization norm)."""
    raw = _apply_word_raw(v, word)
    try:
        return fock.normalize(raw)
    except DegenerateStateError as exc:
        raise DegenerateStateError(f"word {word} annihilated the state") from exc


def scs_amplified(spec: ScsSpec, word: SchemeWord, trunc: int) -> tuple[FockVector, float]:
    """Amplified cat-state qudit and the pre-normalization norm of the raw image."""
    return apply_word(states.scs_state(spec, trunc), word)


def coherent_pair(
    alpha: float, beta: float, d: int, k: int, word: SchemeWord
) -> tuple[complex, complex]:
    """(<H^{k+l}_beta| W |H^k_alpha>, <beta| W |alpha>) for a word W of net photon
    change l, which agree (Prop. 2); at beta = alpha a balanced word gives the
    expectation on the hybrid qudit and on |alpha> (Prop. 1)."""
    l = rises(word)[0]  # rejects an unknown ladder op
    trunc = fock.auto_trunc(max(alpha, beta), additions=word.count(ADD))
    ket = states.hes_state(HesSpec(alpha, d, k), trunc)
    bra = states.hes_state(HesSpec(beta, d, (k + l) % d), trunc)
    x_hes = fock.inner(bra, _apply_word_raw(ket, word))
    coh_a, coh_b = fock.coherent(alpha, trunc), fock.coherent(beta, trunc)
    x_coh = fock.inner(coh_b, _apply_word_raw(coh_a, word))
    return x_hes, x_coh
