"""Cat-state qudits and hybrid entangled qudits.

A cat-state qudit with index k superposes d coherent states |alpha w^n> with
relative phases w^{-kn}, where w = exp(2 pi i / d).  Its Fock support sits on
photon numbers congruent to k (mod d), which is exploited here: cat states are
built directly on that support, so the off-support amplitudes are exactly zero
and small-amplitude states stay numerically clean.

A hybrid qudit pairs a discrete index n with the coherent state |alpha w^n>:
    (1/sqrt d) sum_n w^{-kn} |n> (x) |alpha w^n>
It is held as a d-row FockVector whose row n is the bosonic block of |n>.

The cat-state fidelity and norm factors are residue-class sums
d e^-x sum x^m / m! over m = j (mod d).  ``class_sum`` sums one as the positive
series it is, weighted by a word's prod_i (m + 1 + i) if asked: a Horner pass
in x^d with no cosine and nothing to cancel.  The class sum is also
(1/d) sum_n w^{-jn} times the full sum at x w^n, whose n != 0 terms are below
e^-(x (1 - cos 2 pi / d)) of the n = 0 one; so where that exponent reaches
_SKIP = 45 (``_near`` is false, and at d = 1 for every x) the class sum is the
full sum's, exact to e^-45, and ``amplify.class_poly`` takes that closed form
instead of any series.  ``class_sum`` works on the whole array it is given, as
does ``_series_mean``, the gain scan's class means on the same tables.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .errors import TruncationError
from .fock import FockVector

#: coherent-tail bound a caller-supplied truncation must certify
GATE_EPS = 1e-10

#: a term below e^-45 < 2^-64 of the largest is dropped, under half an ulp of its sum:
#: the tails of a class series, and past x (1 - cos 2 pi / d) = 45 (``_near``) the
#: n != 0 terms of a class sum's root-of-unity form
_SKIP = 45.0
#: ln 2 = _LN2_HI + _LN2_LO, the first with 32 significant bits, so e _LN2_HI is exact
#: for |e| < 2^21
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
#: the largest X_d of ``series_bound``
_SERIES_TOP = 40.0
#: no coefficient, power or Horner partial sum of ``class_sum`` leaves e^+-700
#: (e^709.78 overflows)
_SERIES_LOG_MAX = 700.0


def _check_dims(alpha: float, d: int, k: int) -> None:
    if not (alpha >= 0 and math.isfinite(alpha)):
        raise ValueError("alpha must be finite and >= 0")
    # d = 1 is admitted as the plain coherent-state reduction
    if d < 1:
        raise ValueError("d must be >= 1")
    if not 0 <= k < d:
        raise ValueError("k must satisfy 0 <= k < d")


@dataclass(frozen=True)
class ScsSpec:
    """Parameters (alpha, d, k) of a cat-state qudit basis state."""

    alpha: float
    d: int
    k: int

    def __post_init__(self):
        _check_dims(self.alpha, self.d, self.k)


@dataclass(frozen=True)
class HesSpec:
    """Parameters (alpha, d, k) of a hybrid entangled qudit basis state."""

    alpha: float
    d: int
    k: int

    def __post_init__(self):
        _check_dims(self.alpha, self.d, self.k)


def _gate_trunc(alpha: float, trunc: int) -> None:
    if trunc < 1:
        raise ValueError("trunc must be >= 1")
    tail = fock.coherent_tail(alpha, trunc)
    if tail > GATE_EPS:
        raise TruncationError(
            f"trunc={trunc} leaves coherent tail {tail:.3e} > {GATE_EPS:.1e} at alpha={alpha}"
        )


@functools.cache
def _gap(d: int) -> float:
    """1 - cos 2 pi / d as a Python float, 0 at d = 1: the n = 1 term of a class sum's
    root-of-unity form is e^-(x _gap(d)) of the n = 0 one, and the others smaller."""
    return 1.0 - math.cos(2.0 * math.pi / d)


def _near(x, d: int):
    """x (1 - cos 2 pi / d) < _SKIP, a bool at a float x and a bool array at an array:
    where a class sum is not yet the full sum's 1/d to e^-_SKIP, so it takes a
    series.  False at every x when d = 1, where the class is the full sum."""
    return x * _gap(d) < (_SKIP if d > 1 else 0.0)


def series_bound(d: int) -> float:
    """X_d = min(40, 45 / (1 - cos 2 pi / d)), 40 at d = 1: the top of ``class_sum``'s
    one table for small x.  Up to d = 3 (30 there) it is where ``_near`` turns false;
    from d = 4 on ``amplify.class_poly`` hands ``class_sum`` points past it, up to
    45 / (1 - cos 2 pi / d), and 40 caps the table (at most 33 terms) and the range
    over which its accuracy is tested."""
    return min(_SERIES_TOP, _SKIP / _gap(d)) if d > 1 else _SERIES_TOP


def _log_term(m: int, x: float, offsets: tuple[int, ...]) -> float:
    """ln of prod_i (m + 1 + i) x^m / m!; -inf where a subtraction's factor is 0."""
    p = math.prod(m + 1 + i for i in offsets)
    return math.log(p) + m * math.log(x) - math.lgamma(m + 1.0) if p > 0 else -math.inf


@functools.cache
def _series_table(j: int, d: int, offsets: tuple[int, ...], q: int):
    """(s, m_lo, c, g, n, moments) of class j on x in [0, X_d] (q = 0) or in
    ((2q - 2)^2, (2q)^2] (q > 0).  The series keeps the class members m_lo, m_lo + d,
    .. whose term is within e^-_SKIP of the largest one somewhere on that range; its
    degree comes from (j, d, offsets, q) alone, never from the points summed.  Its
    coefficients c (highest first) in v = x / s are correctly rounded from exact
    integers: P(m) s^m / m! at q = 0, s = 2^e the smallest power of two that keeps
    them, every power of v and every Horner partial sum inside e^+-_SERIES_LOG_MAX;
    P(m) s^m / (m! 2^E) at q > 0, s = (2q)^2, 2^E near the largest, g = E ln 2 - s.
    n = 0, 1, .. and read-only [c, n c] of ``_table_mean``, c rescaled, add one member."""
    top = series_bound(d) if q == 0 else 4.0 * q * q
    ms, peak, m = [], -math.inf, j
    while True:  # the terms are log-concave in m: past m = top they only fall
        lt = _log_term(m, top, offsets)
        peak = max(peak, lt)
        if m > top and lt < peak - _SKIP:
            break
        ms.append(m)
        m += d
    if q:
        low = [_log_term(m, 4.0 * (q - 1) ** 2, offsets) for m in ms]
        ms = ms[next(i for i, lt in enumerate(low) if lt >= max(low) - _SKIP):]
        s = sm = 4 * q * q
    else:
        for p in range(64):
            s = 1 << p
            lc = [lt for lt in (_log_term(m, s, offsets) for m in ms) if lt > -math.inf]
            if (d * math.log(top / s) < _SERIES_LOG_MAX and min(lc) > -_SERIES_LOG_MAX
                    and max(lc) + math.log(len(ms)) < _SERIES_LOG_MAX):
                break
        else:  # first met past d 3000, by classes whose sums underflow at every x <= 40
            raise ArithmeticError(f"no power-of-two scale keeps class {j} of d {d} normal")
        sm = 64  # >= X_d: the mean's powers of x / sm stay <= 1 (``_table_mean``)
    # 2^f near the largest term of the mean's series at the top, and E = f past X_d
    f = round((max(_log_term(m, top, offsets) for m in ms) + ms[0] * math.log(sm / top))
              / math.log(2.0))
    g = (f * _LN2_HI - s) + f * _LN2_LO if q else 0.0  # E ln 2 - s
    # P(m) sm^m / (m! 2^f) of the members and the next one (m), as sm^m and m! grow
    ms.append(m)
    cf, step = [], sm ** d
    num, den = sm ** ms[0] << max(-f, 0), math.factorial(ms[0]) << max(f, 0)
    for m in ms:
        if m > ms[0]:
            num *= step
            den *= math.prod(range(m - d + 1, m + 1))
        cf.append(math.prod(m + 1 + i for i in offsets) * num / den)
    k = s.bit_length() - sm.bit_length()  # (s / sm)^m = 2^(k m): exact, as c and cf are normal
    c = [math.ldexp(cn, (0 if q else f) + k * m) for cn, m in zip(cf, ms[:-1])]
    n = np.arange(float(len(cf)))
    moments = np.array([cf, n * cf]).T
    moments.flags.writeable = False
    return s, ms[0], tuple(reversed(c)), g, n, moments


def class_sum(j: int, x, d: int, offsets: tuple[int, ...] = ()):
    """d e^-x sum prod_i (m + 1 + i) x^m / m! over m = j (mod d), on an array x >= 0, as
    a positive series by Horner's rule in w = v^d (``_series_table``): no cosine,
    nothing to cancel.  On x <= X_d (``series_bound``) it is d e^-x v^j H(w),
    v = x / 2^e exact, within a few ulps.  Past X_d, where ``amplify.class_poly``
    hands it points from d = 4 on, each point takes the table of its bucket of
    sqrt(x) (``_by_table``), and e^-x with the powers of v comes from one exponent,
    exp(g + s - x + m_lo ln v), within a few eps sqrt(x)."""
    j %= d
    x = np.asarray(x, dtype=float)
    hi = float(x.max(initial=0.0))
    if not (x.min(initial=0.0) >= 0.0 and hi < math.inf):
        raise ValueError("x must be finite and >= 0")
    return _by_table(_series, j, x, d, offsets, hi)


def _by_table(read, j: int, x: np.ndarray, d: int, offsets: tuple[int, ...], hi=None):
    """read(table, points, d, far) of class j on each ``_series_table`` x needs: the
    q = 0 table on every point, with no mask, where hi (the greatest x) <= X_d, and
    otherwise to each point the q = 0 table below X_d and its sqrt(x) bucket's past."""
    if (float(x.max()) if hi is None else hi) <= series_bound(d):
        return read(_series_table(j, d, offsets, 0), x, d, False)
    q = np.where(x <= series_bound(d), 0, np.ceil(np.sqrt(x) / 2.0)).astype(int)
    out = np.empty(x.shape)
    for qi in range(q.min(), q.max() + 1):  # a few buckets: cheaper than sorting q
        at = q == qi
        if at.any():
            out[at] = read(_series_table(j, d, offsets, qi), x[at], d, qi > 0)
    return out


def _series(table, x: np.ndarray, d: int, far: bool) -> np.ndarray:
    s, m_lo, c, g = table[:4]
    if far:
        lv = np.log1p((x - s) / s)  # x - s is exact: s / 2 <= x <= s past X_d >= 22.5
        w = np.exp(d * lv)
        pref = np.exp(g + (s - x) + m_lo * lv)
    else:
        v = x if s == 1 else x * (1.0 / s)
        w = v ** d
        pref = np.exp(-x)
        if m_lo:  # m_lo = j on [0, X_d]
            pref *= v ** m_lo
    if len(c) == 1:
        return (d * c[0]) * pref
    acc = c[0] * w
    acc += c[1]
    for cn in c[2:]:
        acc *= w
        acc += cn
    acc *= pref
    acc *= d
    return acc


def _table_mean(table, x: np.ndarray, d: int, far: bool) -> np.ndarray:
    """Mean of m - j over a table's members and the next one up (``_class_walk`` keeps
    it too), m_lo - j + d sum n c_n w^n / sum c_n w^n: the prefactor of ``_series``
    cancels, and below X_d w = (x / 64)^d <= 1, so no power w^n overflows."""
    s, m_lo, n, moments = table[0], table[1], table[4], table[5]
    w = np.exp(d * np.log1p((x - s) / s)) if far else (x / 64.0) ** d
    sums = np.power.outer(w, n) @ moments
    return (m_lo - m_lo % d) + d * (sums[..., 1] / sums[..., 0])  # j = m_lo mod d


#: ``_series_mean(j, x, d, offsets, hi=None)``: the mean of m - j, 0 <= j < d, on
#: ``class_sum``'s tables at every point where ``_near`` holds (``analytic._class_mean``)
_series_mean = functools.partial(_by_table, _table_mean)


def scs_state(spec: ScsSpec, trunc: int) -> FockVector:
    """Unit-norm cat-state qudit on the truncated space.

    Components at photon numbers m != k (mod d) are exactly zero.  At alpha = 0
    the state is |k>.
    """
    a, d, k = spec.alpha, spec.d, spec.k
    _gate_trunc(a, trunc)
    if trunc <= k:
        raise TruncationError(f"trunc={trunc} cannot hold support starting at m={k}")
    if a == 0.0:
        return fock.basis(k, trunc)
    m = np.arange(k, trunc, d)
    logs = m * np.log(a) - 0.5 * fock.log_factorial(m)
    rel = np.exp(logs - logs.max())
    rel /= np.linalg.norm(rel)
    amps = np.zeros(trunc, dtype=complex)
    amps[m] = rel
    return FockVector(amps)


def hes_state(spec: HesSpec, trunc: int) -> FockVector:
    """Hybrid qudit (1/sqrt d) sum_n w^{-kn} |n> (x) |alpha w^n> as a (d, trunc) row stack.

    The norm equals 1 minus the certified coherent tail; no renormalization is
    applied so the discrete-index marginal stays exactly uniform.
    """
    a, d, k = spec.alpha, spec.d, spec.k
    _gate_trunc(a, trunc)
    # row n, component m: w^{-kn} <m|alpha w^n> = w^{n(m-k)} <m|alpha>, one root and one modulus
    roots = np.exp(2j * np.pi * np.arange(d) / d)
    phase = np.arange(d)[:, None] * (np.arange(trunc) - k) % d
    return FockVector(roots[phase] * (fock.coherent_amps(a, trunc).real / np.sqrt(d)))


def build(spec, trunc: int) -> FockVector:
    """The state of an ``ScsSpec`` or a ``HesSpec`` on the truncated space."""
    if not isinstance(spec, (ScsSpec, HesSpec)):
        raise TypeError(f"spec must be ScsSpec or HesSpec, got {type(spec).__name__}")
    return (scs_state if isinstance(spec, ScsSpec) else hes_state)(spec, trunc)


def photon_distribution(state: FockVector) -> np.ndarray:
    """Photon-number probabilities; the discrete index of a hybrid state is traced out."""
    fock._require_normalized(state, "photon_distribution")
    return state.probs()
