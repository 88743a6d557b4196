"""Closed-form fidelities, optimized gains, and quantum Fisher information.

Every closed form takes a named ``Scheme`` (or its name) or a scheme word with
no negative offset (``scheme_word``), and comes from the word's offsets
(``amplify.rises``); m-fold photon addition, for one, is the word ("add",) * m.
The gain slope, the Fisher information and a scalar fidelity are a mean, a
centered variance and the log sums of one positive residue-class series, which
cancel nothing (ln F = 2 L_y + l ln z - L_z - L_a2); on a gain array the fidelity
takes root-of-unity sums S_j(x) via ``amplify.class_poly``, with its
exp[-alpha^2 (g-1)^2] envelope explicit so no intermediate overflows even at
large gain.  A hybrid qudit amplifies as a coherent state does, so its closed
forms are the d = 1 cat ones.  On weights proportional to x^m,
d(mean)/dx = Var/x, so the slope's derivative in g is a difference of class
variances on the same weights.  Past x (1 - cos 2 pi / d) = 45 (at d = 1
everywhere) the class moments are those of the full sum, exact there to e^-45,
for every word: the falling factorials of ``amplify.falling`` make its weights
a mixture of Poisson laws shifted by q, weighted c_q x^q, so the mean is
x + E[q], the variance x + Var(q) and the log sum x - ln d + ln sum_q c_q x^q.
So a class is summed only below that bound: at a scalar x (every Newton step,
scalar fidelity, QFI and log norm) in Python floats by ``_class_walk``, a ratio
walk out from the class member nearest x, and on an array (the gain scan) by
``_class_series``, a window from log space.
"""

from __future__ import annotations

import enum
import functools
import math

import numpy as np

from . import amplify, fock, states
from .errors import DivergentGainError
from .states import _SKIP

#: smallest normal double: a sum or a class-sum argument below it has lost digits
_TINY = np.finfo(float).tiny


class Scheme(enum.Enum):
    """The two named amplification schemes."""

    AADAG = "aadag"  # photon addition then subtraction
    ADAG2 = "adag2"  # double photon addition


def as_scheme(s) -> Scheme:
    if isinstance(s, Scheme):
        return s
    return Scheme(str(s).lower())


@functools.cache
def scheme_word(s) -> amplify.SchemeWord:
    """The word of a named scheme, or ``s`` itself if it is a word none of whose
    offsets is negative: such a word never takes a photon below the input's
    photon number, so its class series have positive weights."""
    if isinstance(s, tuple):
        if min(amplify.rises(s)[1], default=0) < 0:
            raise ValueError(f"word {s} subtracts below the input photon number")
        return s
    return {Scheme.AADAG: amplify.AADAG, Scheme.ADAG2: amplify.ADAG2}[as_scheme(s)]


def target_index(k: int, d: int, s) -> int:
    """Qudit index (k + l) mod d of the amplification target, l the word's net photon change."""
    return (k + amplify.rises(scheme_word(s))[0]) % d


def hes_fidelity(alpha: float, g, s) -> float:
    """Fidelity of the amplified hybrid qudit against the gain-g target (d, k free):
    the coherent state's, the d = 1 cat one."""
    return scs_fidelity(alpha, g, 1, 0, s)


def hes_gain(alpha: float, s) -> float:
    """Gain maximizing the hybrid fidelity; diverges for double addition at alpha = 0."""
    s = as_scheme(s)
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    a2 = alpha * alpha
    if s is Scheme.AADAG:
        # rationalized form of (a2 - 1 + sqrt(a4 + 6 a2 + 1)) / (2 a2), stable at a2 -> 0
        return float(4.0 / (1.0 - a2 + np.sqrt(a2 * a2 + 6 * a2 + 1.0)))
    if alpha == 0.0:
        raise DivergentGainError("double-addition gain diverges as alpha -> 0")
    return float(0.5 * (1.0 + np.sqrt(1.0 + 8.0 / a2)))


def hes_qfi(alpha: float, s=None) -> float:
    """Phase-estimation Fisher information of a (possibly amplified) hybrid qudit:
    the d = 1 cat one, so exactly 4 alpha^2 unamplified."""
    return scs_qfi(alpha, 1, 0, s)


def _gain_array(alpha: float, g, d: int, k: int):
    """g as a float or a float array of 1+ dimensions, each closed form's result kind."""
    states._check_dims(alpha, d, k)
    if not isinstance(g, float):
        g = np.asarray(g, dtype=float)
        g = g if g.ndim else float(g)
    ok = (g > 0 and math.isfinite(g)) if isinstance(g, float) else np.all(np.isfinite(g) & (g > 0))
    if not ok:
        raise ValueError("gain must be finite and positive")
    return g


def scs_fidelity(alpha: float, g, d: int, k: int, s):
    """Fidelity of the amplified cat-state qudit against the gain-g target qudit.

    The target carries index k + l (mod d), l the word's net photon change.  At a
    scalar g, ln F is ``scs_slope_newton``'s third value less ``scs_log_norm``,
    and raises where they do.  An array g (the dense-scan oracles) takes the
    ``amplify.class_poly`` sums S_j, many times faster there, and raises
    ``ArithmeticError`` where a tiny g alpha takes them below the normal doubles.
    """
    word = scheme_word(s)
    l, offsets = amplify.rises(word)
    g = _gain_array(alpha, g, d, k)
    if alpha == 0.0:
        # both states collapse onto number states, |k + l> and |(k + l) mod d>
        val = np.full_like(g, 1.0 if k + l < d else 0.0)
        return val if isinstance(g, np.ndarray) else float(val)
    if not isinstance(g, np.ndarray):
        return math.exp(scs_slope_newton(alpha, g, d, k, word)[2] - scs_log_norm(alpha, d, k, word))
    a2 = alpha * alpha
    y = g * a2
    z = g * g * a2
    env = np.exp(-a2 * (g - 1.0) ** 2)
    num = amplify.class_poly(amplify.overlap_rises(word), y, k, d) ** 2
    if l:
        num = z ** l * num
    den = amplify.class_poly(offsets, a2, k, d) * states.mod_exp_sum((k + l) % d, z, d)
    # at tiny y and z the sums fall below the normal doubles, to 0 or to a few digits
    lost = (num < _TINY) | (den < _TINY)
    if np.any(lost):
        raise ArithmeticError(
            f"fidelity sums underflow at alpha {alpha:g}, gain {np.extract(lost, g)[0]:g}")
    return env * num / den


def _class_series(j: int, x, d: int, rises: tuple[int, ...] = ()):
    """Terms w of prod_i (m + 1 + i) x^m / m! (i in ``rises``) over m = j (mod d),
    0 <= j < d, on an array of x > 0 (a window of +-10 sigma about the peak per
    point, from log space, scaled to a peak of 1), their excesses e = m - j, and
    the log of that scale, so the class sum is e^peak sum w: moments over them
    stay accurate where tiny (S_j ratios, and second moment minus mean squared,
    cancel there).  Each weight carries the rounding of its exponent
    m ln x - ln m!, about eps x ln x; ``_class_walk`` is the scalar kernel.
    Where x = 0 (alpha^2 underflowed) only m = j is left, as in ``_class_walk``:
    weight 1, and c ln x is 0 at c = 0 and -inf above."""
    x = np.asarray(x, dtype=float)[..., None]
    zero = None if x.all() else x[..., 0] == 0.0
    span = 10.0 * np.sqrt(x) + 30.0
    m = j + d * (np.floor(np.maximum(x - span, 0.0) / d)
                 + np.arange(np.ceil(2.0 * span.max() / d) + 1.0))
    log_x = np.log(x) if zero is None else np.log(np.where(x == 0.0, 1.0, x))
    logw = sum(np.log1p(m + i) for i in rises) + m * log_x - fock.log_factorial(m)
    peak = logw.max(axis=-1, keepdims=True)
    w = np.exp(logw - peak)
    if zero is not None:
        w[zero] = np.arange(w.shape[-1]) == 0  # the window there starts at m = j
        peak[zero] = sum(math.log(1 + i) for i in rises) if j == 0 else -math.inf
    return w, m - j, peak[..., 0]


def _moments(w, e, var: bool):
    """Mean of e over the weights w along the last axis, and with ``var`` also
    the centered variance (no cancellation)."""
    total = w.sum(axis=-1)
    mean = (w * e).sum(axis=-1) / total
    if not var:
        return mean
    return mean, (w * (e - mean[..., None]) ** 2).sum(axis=-1) / total


def _class_walk(j: int, x: float, d: int, rises: tuple[int, ...], var: bool):
    """``_mean_excess`` at one x >= 0 and d > 1, in Python floats.  From the class
    member c nearest x, at weight 1, the weights walk up by
    w(m + d) / w(m) = prod_{t=1..d} x / (m + t) prod_i (m + d + 1 + i) / (m + 1 + i)
    and down by its inverse, until one falls below e^-_SKIP or m reaches j.  A
    weight near the peak is then a few rounded products away from 1, not off by
    a log-space exponent's eps x ln x, and only the log sum
    c ln x - ln c! + sum_i ln(c + 1 + i) + ln sum w takes logs."""
    c = j + d * max(0, round((x - j) / d))
    tail = math.exp(-_SKIP)
    up, w, m = [1.0], 1.0, c
    while w >= tail:
        for t in range(1, d + 1):
            w *= x / (m + t)
        for i in rises:
            w *= (m + d + 1 + i) / (m + 1 + i)
        m += d
        up.append(w)
    down, w, m = [], 1.0, c
    while w >= tail and m > j:
        m -= d
        for t in range(1, d + 1):
            w *= (m + t) / x
        for i in rises:
            w *= (m + 1 + i) / (m + d + 1 + i)
        down.append(w)
    ws, lo = down[::-1] + up, c - j - d * len(down)  # lo: the excess of ws[0]
    total = sum(ws)
    mean = lo + d * sum(n * wn for n, wn in enumerate(ws)) / total
    if not var:
        return mean
    spread = sum(wn * (lo + d * n - mean) ** 2 for n, wn in enumerate(ws)) / total
    # c ln x, where x = 0 (alpha^2 underflowed) leaves c = j: 0 at j = 0, -inf above
    log_c = (c * math.log(x) if x else (-math.inf if c else 0.0)) - math.lgamma(c + 1.0)
    return mean, spread, log_c + sum(math.log(c + 1 + i) for i in rises) + math.log(total)


def _mean_excess(j: int, x, d: int, rises: tuple[int, ...] = (), var: bool = False):
    """Mean of m - j over the weights prod_i (m + 1 + i) x^m / m! (i in ``rises``)
    on m = j (mod d); with ``var`` the triple (mean, variance, ln of their sum).

    A class sum is (1/d) sum_n w^{-jn} times the full sum at x w^n, whose n != 0
    terms are below e^-(x (1 - cos 2 pi / d)) of the n = 0 one (|c_q (x w^n)^q|
    <= c_q x^q).  So from that exponent _SKIP = 45 on, the moments are the full
    sum's, far below an ulp: by ``amplify.falling`` the weights are a mixture
    over q of m = q + Poisson(x), weighted c_q x^q, so the mean is x - j + E[q],
    the variance x + Var(q) and the log sum x - ln d + ln sum_q c_q x^q.  At d = 1
    the class is every m, so the mixture moments are exact at every x.  Below
    that bound a scalar x (a Python float throughout) takes ``_class_walk`` and
    an array ``_class_series``, on the points below it only.
    """
    if isinstance(x, np.ndarray):
        near = x * (1.0 - np.cos(2.0 * np.pi / d)) < (_SKIP if d > 1 else 0.0)
        if near.all():
            w, e, peak = _class_series(j, x, d, rises)
            if not var:
                return _moments(w, e, False)
            return *_moments(w, e, True), peak + np.log(w.sum(axis=-1))
        log = np.log
    else:
        x, near, log = float(x), None, math.log
        if d > 1 and x * (1.0 - math.cos(2.0 * math.pi / d)) < _SKIP:
            return _class_walk(j, x, d, rises, var)
    # the mixture weights c_q x^q, lowest q first
    t = [c * x ** q if q else c for q, c in enumerate(reversed(amplify.falling(rises)))]
    total = sum(t[1:], t[0])
    mean = sum(q * tq for q, tq in enumerate(t)) / total
    out = [x - j + mean]
    if var:
        out += [x + sum(tq * (q - mean) ** 2 for q, tq in enumerate(t)) / total,
                x - log(d) + log(total)]
    if near is not None and near.any():
        inner = _mean_excess(j, x[near], d, rises, var)
        for o, v in zip(out, inner if var else (inner,)):
            o[near] = v
    return tuple(out) if var else out[0]


def _gap(alpha: float, g, d: int, k: int, word: amplify.SchemeWord, var: bool = False):
    """g/2 times the slope: the overlap class mean at y = g alpha^2 minus the
    target's at z = g^2 alpha^2, each relative to its class's lowest photon
    number; with ``var`` also its derivative in g, (Var_y - 2 Var_z) / g, as
    dy/dg = y/g and dz/dg = 2 z/g, and ln F + L, L the g-free log sum of
    ``scs_log_norm``: 2 L_y + l ln z - L_z from the log class sums L_y, L_z of
    the same weights (the envelope and the e^-x of every S_j cancel)."""
    a2 = alpha * alpha
    l = amplify.rises(word)[0]
    j = (k + l) % d
    # overlap weights P(m) y^m / m! at m = k, target z^m / m! at m = k + l (mod d)
    y = _mean_excess(k, g * a2, d, amplify.overlap_rises(word), var)
    z = _mean_excess(j, g * g * a2, d, (), var)
    if not var:
        return l + k - j + y - z
    log_f = 2.0 * y[2] - z[2] + (l * math.log(g * g * a2) if l else 0.0)
    return l + k - j + y[0] - z[0], (y[1] - 2.0 * z[1]) / g, log_f


def scs_slope(alpha: float, g, d: int, k: int, s):
    """Closed-form d(ln F)/dg of ``scs_fidelity``; its root in g is the optimized gain.

    With S_j'(x) = S_{j-1}(x) - S_j(x) the envelope cancels, leaving 2/g times a
    difference of residue-class mean photon numbers: of the overlap weights at
    y = g alpha^2 and of the target at z = g^2 alpha^2.  Each is taken relative
    to its class's lowest photon number, so no digits cancel where F is flat.
    """
    word = scheme_word(s)
    g = _gain_array(alpha, g, d, k)
    if alpha == 0.0:
        val = np.zeros_like(g)  # the fidelity does not depend on g
    else:
        val = 2.0 / g * _gap(alpha, g, d, k, word)
    return val if isinstance(g, np.ndarray) else float(val)


def scs_slope_newton(alpha: float, g: float, d: int, k: int, s) -> tuple[float, float, float]:
    """(D, dD/dg, ln F + ``scs_log_norm``) at one gain, where ``scs_slope`` = 2 D / g:
    a Newton step on D refines the slope's root without a second evaluation for
    the derivative, and the class sums it takes give the fidelity there too.  It
    raises ``ArithmeticError`` where g^2 alpha^2 is 0, or where alpha^2, g alpha^2 or
    g^2 alpha^2 is subnormal and so is c ln x, c > 0 the lowest member of its class."""
    word = scheme_word(s)
    g = _gain_array(alpha, g, d, k)
    if alpha == 0.0:
        return 0.0, 0.0, 0.0
    a2 = alpha * alpha
    z = g * g * a2
    if z == 0.0 or (min(a2, g * a2) < _TINY and k) or (z < _TINY and target_index(k, d, word)):
        raise ArithmeticError(f"log class sums underflow at alpha {alpha:g}, gain {g:g}")
    gap, dgap, log_f = _gap(alpha, g, d, k, word, var=True)
    return float(gap), float(dgap), float(log_f)


def scs_log_norm(alpha: float, d: int, k: int, s) -> float:
    """ln of sum f(m)^2 alpha^(2m) / m! over m = k (mod d), f(m)^2 the product
    over the word's offsets, for alpha > 0: the gain-free part of ln F, which is
    ``scs_slope_newton``'s third value less this.  The weights are
    ``scs_qfi``'s.  Where alpha^2 (1 - cos 2 pi / d) >= 45, and at d = 1 for
    every alpha, this is the closed form x - ln d + ln sum_q c_q x^q of
    ``_mean_excess`` at x = alpha^2, for every word.  Where alpha^2 is subnormal
    it is ln f(0)^2 at k = 0, and raises ``ArithmeticError`` above (k ln x lost)."""
    states._check_dims(alpha, d, k)
    if alpha == 0.0:
        raise ValueError("alpha must be > 0")
    if (a2 := alpha * alpha) < _TINY and k:
        raise ArithmeticError(f"log norm underflows at alpha {alpha:g}")
    return float(_mean_excess(k, a2, d, amplify.rises(scheme_word(s))[1], True)[2])


def scs_qfi(alpha: float, d: int, k: int, s=None) -> float:
    """Phase-estimation Fisher information 4 Var(n) of a (possibly amplified) cat-state qudit."""
    states._check_dims(alpha, d, k)
    if alpha == 0.0:
        return 0.0  # number states are phase invariant
    # weights f(m)^2 x^m / m! on m = k (mod d), f(m)^2 the product over the word's
    # offsets; its shift of every m by l leaves Var(n) as it is
    rises = () if s is None else amplify.rises(scheme_word(s))[1]
    return 4.0 * float(_mean_excess(k, alpha * alpha, d, rises, True)[1])


def qfi_ratio(alpha: float, d: int | None = None, k: int | None = None) -> float:
    """Fisher-information ratio of the two schemes (add-then-subtract over double add).

    With d (and k) omitted the hybrid/coherent family is used; otherwise the
    cat-state qudit (d, k).
    """
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    if d is None:
        d, k = 1, 0  # a hybrid qudit's Fisher information is the coherent state's
    elif k is None:
        raise ValueError("k is required together with d")
    return scs_qfi(alpha, d, k, Scheme.AADAG) / scs_qfi(alpha, d, k, Scheme.ADAG2)


_IDENTITIES = {
    # word (rightmost acts first) -> coefficients of adag^j a^j, index j
    "sub_add3_sub3_add": (("subtract", "add", "add", "add", "subtract", "subtract", "subtract", "add"), {4: 1.0, 3: 7.0, 2: 9.0}),
    "sub_add2_sub2_add": (("subtract", "add", "add", "subtract", "subtract", "add"), {3: 1.0, 2: 5.0, 1: 4.0}),
    "sub2_add2_sub2_add2": (("subtract", "subtract", "add", "add", "subtract", "subtract", "add", "add"), {4: 1.0, 3: 12.0, 2: 38.0, 1: 32.0, 0: 4.0}),
    "sub2_add_sub_add2": (("subtract", "subtract", "add", "subtract", "add", "add"), {3: 1.0, 2: 8.0, 1: 14.0, 0: 4.0}),
}


def verify_normal_ordering_identities(trunc: int) -> dict[str, float]:
    """Max interior deviation between ladder words and their normally ordered forms.

    Returns one entry per identity; deviations are measured on matrix entries
    with both indices <= trunc - 6 so boundary truncation cannot contribute.
    """
    if trunc < 12:
        raise ValueError("trunc must be >= 12")
    a = np.diag(np.sqrt(np.arange(1.0, trunc)), 1)
    ad = a.T.copy()
    ops = {"add": ad, "subtract": a}
    report = {}
    cut = trunc - 5  # entries with index <= trunc - 6
    for name, (word, coeffs) in _IDENTITIES.items():
        left = np.eye(trunc)
        for op in word:  # leftmost factor applied last = leftmost in the product
            left = left @ ops[op]
        right = np.zeros((trunc, trunc))
        for j, c in coeffs.items():
            right += c * np.linalg.matrix_power(ad, j) @ np.linalg.matrix_power(a, j)
        report[name] = float(np.max(np.abs((left - right)[:cut, :cut])))
    return report
