"""Closed-form fidelities, optimized gains, and quantum Fisher information.

Every closed form takes a named ``Scheme`` (or its name) or a scheme word with
no negative offset (``scheme_word``), and comes from the word's offsets
(``amplify.rises``); m-fold photon addition, for one, is the word
("add",) * m.  The cat-state fidelity reduces to root-of-unity sums S_j(x) via
``amplify.class_poly``; the gain slope and the Fisher information are a mean
and a centered variance of one positive residue-class series
(``_class_series``), which cancel nothing.  A hybrid qudit amplifies as a
coherent state does, so its closed forms are the d = 1 cat ones.  On weights
proportional to x^m, d(mean)/dx = Var/x, so the slope's derivative in g is a
difference of class variances on the same weights.  Past
x (1 - cos 2 pi / d) = 45 (at d = 1 everywhere) the class moments are plain
Poisson ones, exact there to e^-45: mean x and variance x on x^m / m!, and
with the rise m + 1 mean x (x + 2) / (x + 1) and variance
x (x^2 + 2 x + 2) / (x + 1)^2.  So the series runs only below that bound, in a
small window.  Fidelities carry their exp[-alpha^2 (g-1)^2] envelope
explicitly so no intermediate overflows even at large gain.
"""

from __future__ import annotations

import enum

import numpy as np

from . import amplify, fock, states
from .errors import DivergentGainError
from .fock import DensityMatrix
from .states import _SKIP, mod_exp_sum

#: smallest normal double: a sum below it has lost digits to underflow
_TINY = np.finfo(float).tiny


class Scheme(enum.Enum):
    """The two named amplification schemes."""

    AADAG = "aadag"  # photon addition then subtraction
    ADAG2 = "adag2"  # double photon addition


def as_scheme(s) -> Scheme:
    if isinstance(s, Scheme):
        return s
    return Scheme(str(s).lower())


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
    the d = 1 cat one, and exactly 4 alpha^2 unamplified."""
    if s is None and alpha >= 0:
        return 4.0 * alpha * alpha
    return scs_qfi(alpha, 1, 0, s)


def _gain_array(alpha: float, g, d: int, k: int) -> np.ndarray:
    states._check_dims(alpha, d, k)
    g = np.asarray(g, dtype=float)
    if np.any(g <= 0):
        raise ValueError("gain must be positive")
    return g


def scs_fidelity(alpha: float, g, d: int, k: int, s):
    """Fidelity of the amplified cat-state qudit against the gain-g target qudit.

    The target carries index k + l (mod d), l the word's net photon change; the
    overlap and the norms are ``amplify.class_poly`` sums.  ``g`` may be an array
    (used by the dense-scan oracles).  Where a tiny g alpha takes its numerator
    or norms below the normal doubles, it raises ``ArithmeticError`` rather than
    return F without its digits.
    """
    word = scheme_word(s)
    l, offsets = amplify.rises(word)
    g = _gain_array(alpha, g, d, k)
    if alpha == 0.0:
        # both states collapse onto number states, |k + l> and |(k + l) mod d>
        val = np.full_like(g, 1.0 if k + l < d else 0.0)
        return float(val) if val.ndim == 0 else val
    a2 = alpha * alpha
    y = g * a2
    z = g * g * a2
    env = np.exp(-a2 * (g - 1.0) ** 2)
    num = amplify.class_poly(amplify.overlap_rises(word), y, k, d) ** 2
    if l:
        num = z ** l * num
    den = amplify.class_poly(offsets, a2, k, d) * mod_exp_sum((k + l) % d, z, d)
    # at tiny y and z the sums fall below the normal doubles, to 0 or to a few digits
    lost = (num < _TINY) | (den < _TINY)
    if np.any(lost):
        raise ArithmeticError(
            f"fidelity sums underflow at alpha {alpha:g}, gain {g[lost].flat[0]:g}")
    val = env * num / den
    return float(val) if val.ndim == 0 else val


def _class_series(j: int, x, d: int, rises: tuple[int, ...] = ()):
    """Terms w of prod_i (m + 1 + i) x^m / m! (i in ``rises``) over m = j (mod d),
    0 <= j < d, x > 0, scaled to a peak of 1 within +-10 sigma of it from log
    space, their excesses e = m - j, and the log of that scale, so the class
    sum is e^peak sum w: moments over them stay accurate where tiny (S_j
    ratios, and second moment minus mean squared, cancel there)."""
    x = np.asarray(x, dtype=float)[..., None]
    span = 10.0 * np.sqrt(x) + 30.0
    m = j + d * (np.floor(np.maximum(x - span, 0.0) / d)
                 + np.arange(np.ceil(2.0 * span.max() / d) + 1.0))
    logw = sum(np.log1p(m + i) for i in rises) + m * np.log(x) - fock.log_factorial(m)
    peak = logw.max(axis=-1, keepdims=True)
    return np.exp(logw - peak), m - j, peak[..., 0]


def _moments(w, e, var: bool):
    """Mean of e over the weights w along the last axis, and with ``var`` also
    the centered variance (no cancellation)."""
    total = w.sum(axis=-1)
    mean = (w * e).sum(axis=-1) / total
    if not var:
        return mean
    return mean, (w * (e - mean[..., None]) ** 2).sum(axis=-1) / total


def _series_moments(j: int, x, d: int, rises: tuple[int, ...], var: bool):
    """``_moments`` of the ``_class_series``; with ``var`` the triple (mean,
    variance, ln of the class sum)."""
    w, e, peak = _class_series(j, x, d, rises)
    if not var:
        return _moments(w, e, False)
    return *_moments(w, e, True), peak + np.log(w.sum(axis=-1))


def _mean_excess(j: int, x, d: int, rises: tuple[int, ...] = (), var: bool = False):
    """Mean of m - j over the weights prod_i (m + 1 + i) x^m / m! (i in ``rises``)
    on m = j (mod d); with ``var`` the triple (mean, variance, ln of their sum).

    A class sum is (1/d) sum_n w^{-jn} times the full sum at x w^n, whose n != 0
    terms are below e^-(x (1 - cos 2 pi / d)) of the n = 0 one (with the rise
    m + 1 too: |1 + x w^n| <= 1 + x).  So for rises () and (0,), from that
    exponent _SKIP = 45 on, the moments are the Poisson ones of the module
    docstring, far below an ulp, and the log sums x - ln d and
    x + ln(1 + x) - ln d; below it, and for other rises, they are
    ``_class_series`` ones.  At d = 1 the class is every m, so the Poisson
    forms are exact at every x.
    """
    x = np.asarray(x, dtype=float)
    near = x * (1.0 - np.cos(2.0 * np.pi / d)) < (_SKIP if d > 1 else 0.0)
    if near.all() or rises not in ((), (0,)):
        return _series_moments(j, x, d, rises, var)
    rise = rises == (0,)
    out = [x * (x + 2.0) / (x + 1.0) - j if rise else x - j]
    if var:
        out.append(x * (x * x + 2.0 * x + 2.0) / (x + 1.0) ** 2 if rise else x.copy())
        out.append(x + np.log1p(x) - np.log(d) if rise else x - np.log(d))
    if near.any():
        inner = _series_moments(j, x[near], d, rises, var)
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
    log_f = 2.0 * y[2] - z[2] + (l * np.log(g * g * a2) if l else 0.0)
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
    return float(val) if val.ndim == 0 else val


def scs_slope_newton(alpha: float, g: float, d: int, k: int, s) -> tuple[float, float, float]:
    """(D, dD/dg, ln F + ``scs_log_norm``) at one gain, where ``scs_slope`` = 2 D / g:
    a Newton step on D refines the slope's root without a second evaluation for
    the derivative, and the class sums it takes give the fidelity there too."""
    word = scheme_word(s)
    g = _gain_array(alpha, g, d, k)
    if alpha == 0.0:
        return 0.0, 0.0, 0.0
    gap, dgap, log_f = _gap(alpha, g, d, k, word, var=True)
    return float(gap), float(dgap), float(log_f)


def scs_log_norm(alpha: float, d: int, k: int, s) -> float:
    """ln of sum f(m)^2 alpha^(2m) / m! over m = k (mod d), f(m)^2 the product
    over the word's offsets, for alpha > 0: the gain-free part of ln F, which is
    ``scs_slope_newton``'s third value less this.  The weights are
    ``scs_qfi``'s; the named schemes' offsets, (0, 0) and (0, 1), have no
    far-field form, so they always take the series."""
    states._check_dims(alpha, d, k)
    if alpha == 0.0:
        raise ValueError("alpha must be > 0")
    return float(_mean_excess(k, alpha * alpha, d, amplify.rises(scheme_word(s))[1], True)[2])


def scs_qfi(alpha: float, d: int, k: int, s=None) -> float:
    """Phase-estimation Fisher information 4 Var(n) of a (possibly amplified) cat-state qudit."""
    states._check_dims(alpha, d, k)
    if alpha == 0.0:
        return 0.0  # number states are phase invariant
    # weights f(m)^2 x^m / m! on m = k (mod d), f(m)^2 the product over the word's
    # offsets; its shift of every m by l leaves Var(n) as it is
    rises = () if s is None else amplify.rises(scheme_word(s))[1]
    return 4.0 * float(_series_moments(k, alpha * alpha, d, rises, True)[1])


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


def qfi_spectral(rho: DensityMatrix, eig_cutoff: float = 1e-12) -> float:
    """Fisher information 2 sum_{k,l} (l_k - l_l)^2 / (l_k + l_l) |<k|n|l>|^2.

    The generator is the photon-number operator; eigenpairs with combined
    weight below ``eig_cutoff`` are skipped.  For pure states this reduces to
    4 Var(n).
    """
    lam, vec = np.linalg.eigh(rho.entries)
    n = np.arange(rho.dim)
    h = vec.conj().T @ (n[:, None] * vec)  # <k| n |l>
    total = 0.0
    for a in range(rho.dim):
        for b in range(rho.dim):
            w = lam[a] + lam[b]
            if w > eig_cutoff:
                total += (lam[a] - lam[b]) ** 2 / w * abs(h[a, b]) ** 2
    return 2.0 * total


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
