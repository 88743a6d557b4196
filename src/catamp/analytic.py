"""Closed-form fidelities, optimized gains, and quantum Fisher information.

Every closed form takes a named ``Scheme`` (or its name) or a scheme word with
no negative offset (``scheme_word``), and comes from the word's offsets
(``amplify.rises``); m-fold photon addition, for one, is the word ("add",) * m.
The gain slope, the Fisher information and a scalar fidelity are a mean, a
centered variance and the log sums of one positive residue-class series, which
cancel nothing (ln F = 2 L_y + l ln z - L_z - L_a2); on a gain array the fidelity
takes class sums from ``amplify.class_poly`` (a positive Horner series below the
bound x (1 - cos 2 pi / d) = 45, the closed form of the full sum past it), with
its exp[-alpha^2 (g-1)^2] envelope explicit so no intermediate overflows even at
large gain.  A hybrid qudit amplifies as a
coherent state does, so its closed forms are the d = 1 cat ones.  On weights
proportional to x^m,
d(mean)/dx = Var/x, so the slope's derivative in g is a difference of class
variances on the same weights.  Past x (1 - cos 2 pi / d) = 45 (at d = 1
everywhere) the class moments are those of the full sum, exact there to e^-45,
for every word: the falling factorials of ``amplify.falling`` make its weights
a mixture of Poisson laws shifted by q, weighted c_q x^q, so the mean is
x + E[q], the variance x + Var(q) and the log sum x - ln d + ln sum_q c_q x^q.
So a class is summed only below that bound (``states._near``), by one of two
kernels.  On an array (the gain scan) ``_class_mean`` gives the class mean
alone, from the positive series tables of ``states.class_sum``.  At a float
(every Newton step, scalar fidelity, QFI and log norm) ``_class_moments`` gives
the mean, variance and log sum, from ``_class_walk``, a ratio walk in Python
floats out from the member nearest x.
"""

from __future__ import annotations

import enum
import functools
import math

import numpy as np

from . import amplify, states
from .errors import DivergentGainError
from .states import _SKIP

#: smallest normal double: a sum or a class-sum argument below it has lost digits
_TINY = np.finfo(float).tiny
#: gains per block of the array fidelity: 2^14 points make 128 KiB per float
#: temporary, so every temporary of one block (the Horner accumulators and powers
#: of ``amplify.class_poly``, the envelope) stays inside a 2 MiB L2 cache, and
#: peak memory does not grow with the array
_BLOCK = 1 << 14
#: ``_class_walk`` stops at a weight below e^-_SKIP of the peak's
_TAIL = math.exp(-_SKIP)


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
    """(g, lo, hi): g as a float or a float array of 1+ dimensions, each closed
    form's result kind, and its least and greatest value (inf and -inf when empty)."""
    states._check_dims(alpha, d, k)
    if not isinstance(g, float):
        g = np.asarray(g, dtype=float)
        g = g if g.ndim else float(g)
    ends = (g, g) if isinstance(g, float) else (g.min(initial=math.inf), g.max(initial=-math.inf))
    lo, hi = map(float, ends)  # a NaN makes both NaN
    if not (lo > 0 and hi < math.inf):
        raise ValueError("gain must be finite and positive")
    return g, lo, hi


def scs_fidelity(alpha: float, g, d: int, k: int, s):
    """Fidelity of the amplified cat-state qudit against the gain-g target qudit.

    The target carries index k + l (mod d), l the word's net photon change.  At a
    scalar g, ln F is ``scs_slope_newton``'s third value less ``scs_log_norm``,
    and raises where they do.  An array g (the dense-scan oracles) takes its
    three class sums, the denominator's too, from ``amplify.class_poly``, many
    times faster there: the positive series where x (1 - cos 2 pi / d) < 45 and
    the closed form of the full sum past that bound and at d = 1, each gain on
    its own route.  It works in blocks of ``_BLOCK`` gains in
    flat order, and raises ``ArithmeticError`` at the first gain where a tiny
    g alpha takes the sums below the normal doubles.  Where
    |g - 1| >= sqrt(746) / alpha the envelope exp[-alpha^2 (g-1)^2] rounds to 0,
    so the array F is exactly 0.0 there, at any g, and takes no class sum.  The true F
    there is below e^-746 times the ratio of the sums, which the scalar route
    resolves: a subnormal at most at alpha 3, d 4, k 1 under double addition
    (7.4e-321 at the cut), but 2.6e-296 at alpha 0.01, d 12, k 11.
    """
    word = scheme_word(s)
    l, offsets = amplify.rises(word)
    g = _gain_array(alpha, g, d, k)[0]
    if alpha == 0.0:
        # both states collapse onto number states, |k + l> and |(k + l) mod d>
        val = np.full_like(g, 1.0 if k + l < d else 0.0)
        return val if isinstance(g, np.ndarray) else float(val)
    if not isinstance(g, np.ndarray):
        return math.exp(scs_slope_newton(alpha, g, d, k, word)[2] - scs_log_norm(alpha, d, k, word))
    a2 = alpha * alpha
    rises, j = amplify.overlap_rises(word), (k + l) % d
    norm = amplify.class_poly(offsets, a2, k, d)
    # exp[-a2 (g - 1)^2] is exactly 0 from a2 (g - 1)^2 >= 746 on (below e^-745.14)
    cut = math.sqrt(746.0 / a2) if a2 else math.inf
    flat = g.reshape(-1)
    out = np.zeros(flat.size)
    for lo in range(0, flat.size, _BLOCK):
        gb = flat[lo:lo + _BLOCK]
        at = slice(lo, lo + gb.size)
        keep = np.abs(gb - 1.0) < cut
        if not keep.all():
            if not keep.any():
                continue
            keep = np.flatnonzero(keep)
            gb, at = gb[keep], lo + keep
        y = gb * a2
        z = gb * gb * a2
        env = np.exp(-a2 * (gb - 1.0) ** 2)
        num = amplify.class_poly(rises, y, k, d) ** 2
        if l:
            num = z ** l * num
        den = norm * amplify.class_poly((), z, j, d)
        # at tiny y and z the sums fall below the normal doubles, to 0 or to a few digits
        lost = (num < _TINY) | (den < _TINY)
        if np.any(lost):
            raise ArithmeticError(
                f"fidelity sums underflow at alpha {alpha:g}, gain {np.extract(lost, gb)[0]:g}")
        out[at] = env * num / den
    return out.reshape(g.shape)


def _class_walk(j: int, x: float, d: int, rises: tuple[int, ...]):
    """``_class_moments`` at one x >= 0 and d > 1, in Python floats.  From the class
    member c nearest x, at weight 1, the weights walk up by
    w(m + d) / w(m) = prod_{t=1..d} x / (m + t) prod_i (m + d + 1 + i) / (m + 1 + i)
    and down by its inverse, until one falls below _TAIL or m reaches j.  A
    weight near the peak is then a few rounded products away from 1, not off by
    a log-space exponent's eps x ln x, and only the log sum
    c ln x - ln c! + sum_i ln(c + 1 + i) + ln sum w takes logs.  Plain loops sum the
    weights, lowest first, with their first moment, then the centered variance."""
    c = j + d * max(0, round((x - j) / d))
    up, w, m = [1.0], 1.0, c
    while w >= _TAIL:
        for t in range(1, d + 1):
            w *= x / (m + t)
        for i in rises:
            w *= (m + d + 1 + i) / (m + 1 + i)
        m += d
        up.append(w)
    down, w, m = [], 1.0, c
    while w >= _TAIL and m > j:
        m -= d
        for t in range(1, d + 1):
            w *= (m + t) / x
        for i in rises:
            w *= (m + 1 + i) / (m + d + 1 + i)
        down.append(w)
    ws, e = down[::-1] + up, c - j - d * len(down)  # e: the excess of ws[0]
    total = first = 0.0
    for n, wn in enumerate(ws):
        total += wn
        first += n * wn
    mean = e + d * first / total
    spread = 0.0
    for wn in ws:
        spread += wn * (e - mean) ** 2
        e += d
    # c ln x, where x = 0 (alpha^2 underflowed) leaves c = j: 0 at j = 0, -inf above
    log_c = (c * math.log(x) if x else (-math.inf if c else 0.0)) - math.lgamma(c + 1.0)
    return mean, spread / total, log_c + sum([math.log(c + 1 + i) for i in rises]) + math.log(total)


def _mixture(x, rises: tuple[int, ...]):
    """The far field's mixture weights c_q x^q of ``amplify.falling``, lowest q
    first, their sum and the mean of q over them."""
    t = [c * x ** q if q else c for q, c in enumerate(reversed(amplify.falling(rises)))]
    total = sum(t[1:], t[0])
    return t, total, sum(q * tq for q, tq in enumerate(t)) / total


def _class_mean(j: int, x: np.ndarray, d: int, rises: tuple[int, ...] = (), lo=None, hi=None):
    """Mean of m - j over the weights prod_i (m + 1 + i) x^m / m! (i in ``rises``)
    on m = j (mod d), at every point of an array x >= 0 (the gain scan): the
    mixture mean x - j + E[q] (see ``_class_moments``) past the bound, and on the
    points below it ``states._series_mean`` on the tables of ``states.class_sum``.  As
    ``states._near`` is monotone, the least and greatest x (lo, hi) pick the route."""
    if lo is None:
        lo, hi = float(x.min()), float(x.max())
    if states._near(hi, d):
        return states._series_mean(j, x, d, rises, hi)
    mean = x - j + _mixture(x, rises)[2]
    if states._near(lo, d):
        near = states._near(x, d)
        mean[near] = states._series_mean(j, x[near], d, rises)
    return mean


@functools.lru_cache(maxsize=4)
def _class_moments(j: int, x: float, d: int, rises: tuple[int, ...] = ()):
    """(mean, variance, ln sum) of m - j over the weights of ``_class_mean`` at one
    x >= 0, in Python floats (every Newton step, QFI and log norm).

    A class sum is (1/d) sum_n w^{-jn} times the full sum at x w^n, whose n != 0
    terms are below e^-(x (1 - cos 2 pi / d)) of the n = 0 one (|c_q (x w^n)^q|
    <= c_q x^q).  So from that exponent _SKIP = 45 on, the moments are the full
    sum's, far below an ulp: by ``amplify.falling`` the weights are a mixture
    over q of m = q + Poisson(x), weighted c_q x^q, so the mean is x - j + E[q],
    the variance x + Var(q) and the log sum x - ln d + ln sum_q c_q x^q.  At d = 1
    the class is every m, so the mixture moments are exact at every x.  Below
    that bound the class takes ``_class_walk``.  The last four results are kept,
    so a sweep row's ``scs_log_norm`` and its own scheme's ``scs_qfi`` share one
    walk; a row makes more calls than that, and the next row of a sweep has
    another alpha or k, so no row reuses another's result.
    """
    x = float(x)
    if states._near(x, d):
        return _class_walk(j, x, d, rises)
    t, total, mean = _mixture(x, rises)
    spread = sum(tq * (q - mean) ** 2 for q, tq in enumerate(t)) / total
    return x - j + mean, x + spread, x - math.log(d) + math.log(total)


def scs_slope(alpha: float, g, d: int, k: int, s):
    """Closed-form d(ln F)/dg of ``scs_fidelity``; its root in g is the optimized gain.

    With S_j'(x) = S_{j-1}(x) - S_j(x) for the class sums S_j(x) =
    ``amplify.class_poly((), x, j, d)`` the envelope cancels, leaving 2/g times a
    difference of residue-class mean photon numbers: of the overlap weights at
    y = g alpha^2 and of the target at z = g^2 alpha^2.  Each is taken relative
    to its class's lowest photon number, so no digits cancel where F is flat.  A
    gain array takes ``_class_mean`` (``class_sum``'s tables), a float ``_class_moments``.
    """
    word = scheme_word(s)
    g, g_lo, g_hi = _gain_array(alpha, g, d, k)
    scan = isinstance(g, np.ndarray)
    if alpha == 0.0 or not np.size(g):  # the fidelity does not depend on g, or no g
        return np.zeros_like(g) if scan else 0.0
    a2 = alpha * alpha
    l = amplify.rises(word)[0]
    j = (k + l) % d
    # overlap weights P(m) y^m / m! at m = k, target z^m / m! at m = k + l (mod d)
    if scan:  # x -> g x and x -> g^2 x keep their order, so the extremes map to the extremes
        y = _class_mean(k, g * a2, d, amplify.overlap_rises(word), g_lo * a2, g_hi * a2)
        z = _class_mean(j, g * g * a2, d, (), g_lo * g_lo * a2, g_hi * g_hi * a2)
    else:
        y = _class_moments(k, g * a2, d, amplify.overlap_rises(word))[0]
        z = _class_moments(j, g * g * a2, d)[0]
    return 2.0 / g * (l + k - j + y - z)


def scs_slope_newton(alpha: float, g: float, d: int, k: int, s) -> tuple[float, float, float]:
    """(D, dD/dg, ln F + ``scs_log_norm``) at one gain, where ``scs_slope`` = 2 D / g:
    a Newton step on D refines the slope's root without a second evaluation for
    the derivative, and the class sums it takes give the fidelity there too.  It
    raises ``ArithmeticError`` where g^2 alpha^2 is 0, where alpha^2, g alpha^2 or
    g^2 alpha^2 is subnormal and so is c ln x, c > 0 the lowest member of its class,
    and where g^2 alpha^2 overflows, as its log sums and mean would then be inf."""
    word = scheme_word(s)
    g = _gain_array(alpha, g, d, k)[0]
    if alpha == 0.0:
        return 0.0, 0.0, 0.0
    a2 = alpha * alpha
    l = amplify.rises(word)[0]
    j = (k + l) % d
    z = g * g * a2
    if z == 0.0 or (min(a2, g * a2) < _TINY and k) or (z < _TINY and j):
        raise ArithmeticError(f"log class sums underflow at alpha {alpha:g}, gain {g:g}")
    if z == math.inf:
        raise ArithmeticError(f"log class sums overflow at alpha {alpha:g}, gain {g:g}")
    # the class moments of ``scs_slope``'s means; as dy/dg = y/g and dz/dg = 2 z/g,
    # dD/dg = (Var_y - 2 Var_z) / g, and ln F + L = 2 L_y + l ln z - L_z from their
    # log sums (the envelope and the e^-x of every class sum cancel)
    y = _class_moments(k, g * a2, d, amplify.overlap_rises(word))
    t = _class_moments(j, z, d)
    log_f = 2.0 * y[2] - t[2] + (l * math.log(z) if l else 0.0)
    return l + k - j + y[0] - t[0], (y[1] - 2.0 * t[1]) / g, log_f


def scs_log_norm(alpha: float, d: int, k: int, s) -> float:
    """ln of sum f(m)^2 alpha^(2m) / m! over m = k (mod d), f(m)^2 the product
    over the word's offsets, for alpha > 0: the gain-free part of ln F, which is
    ``scs_slope_newton``'s third value less this.  The weights are
    ``scs_qfi``'s.  Where alpha^2 (1 - cos 2 pi / d) >= 45, and at d = 1 for
    every alpha, this is the closed form x - ln d + ln sum_q c_q x^q of
    ``_class_moments`` at x = alpha^2, for every word.  Where alpha^2 is subnormal
    it is ln f(0)^2 at k = 0, and raises ``ArithmeticError`` above (k ln x lost)."""
    states._check_dims(alpha, d, k)
    if alpha == 0.0:
        raise ValueError("alpha must be > 0")
    if (a2 := alpha * alpha) < _TINY and k:
        raise ArithmeticError(f"log norm underflows at alpha {alpha:g}")
    return _class_moments(k, a2, d, amplify.rises(scheme_word(s))[1])[2]


def scs_qfi(alpha: float, d: int, k: int, s=None) -> float:
    """Phase-estimation Fisher information 4 Var(n) of a (possibly amplified) cat-state qudit."""
    states._check_dims(alpha, d, k)
    if alpha == 0.0:
        return 0.0  # number states are phase invariant
    # weights f(m)^2 x^m / m! on m = k (mod d), f(m)^2 the product over the word's
    # offsets; its shift of every m by l leaves Var(n) as it is
    rises = () if s is None else amplify.rises(scheme_word(s))[1]
    return 4.0 * _class_moments(k, alpha * alpha, d, rises)[1]


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


_IDENTITIES = {  # balanced words, rightmost acts first
    "sub_add3_sub3_add": ("subtract", "add", "add", "add", "subtract", "subtract", "subtract", "add"),
    "sub_add2_sub2_add": ("subtract", "add", "add", "subtract", "subtract", "add"),
    "sub2_add2_sub2_add2": ("subtract", "subtract", "add", "add", "subtract", "subtract", "add", "add"),
    "sub2_add_sub_add2": ("subtract", "subtract", "add", "subtract", "add", "add"),
}


def verify_normal_ordering_identities(trunc: int) -> dict[str, float]:
    """Max interior deviation between ladder words and their normally ordered forms
    sum_j c_j adag^j a^j, c = ``amplify.falling(amplify.overlap_rises(word))``.

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
    for name, word in _IDENTITIES.items():
        left = np.eye(trunc)
        for op in word:  # leftmost factor applied last = leftmost in the product
            left = left @ ops[op]
        c = amplify.falling(amplify.overlap_rises(word))  # highest j first
        right = np.zeros((trunc, trunc))
        for j, cj in zip(range(len(c) - 1, -1, -1), c):
            right += cj * np.linalg.matrix_power(ad, j) @ np.linalg.matrix_power(a, j)
        report[name] = float(np.max(np.abs((left - right)[:cut, :cut])))
    return report
