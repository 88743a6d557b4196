"""Cat-state qudits and hybrid entangled qudits.

A cat-state qudit with index k superposes d coherent states |alpha w^n> with
relative phases w^{-kn}, where w = exp(2 pi i / d).  Its Fock support sits on
photon numbers congruent to k (mod d), which is exploited here: cat states are
built directly on that support, so the off-support amplitudes are exactly zero
and small-amplitude states stay numerically clean.

A hybrid qudit pairs a discrete index n with the coherent state |alpha w^n>:
    (1/sqrt d) sum_n w^{-kn} |n> (x) |alpha w^n>
It is held as a d-row FockVector whose row n is the bosonic block of |n>.

The cat-state fidelity and norm factors reduce to root-of-unity sums

    S_j(x) = sum_{n=0}^{d-1} w^{-jn} exp[-x (1 - w^n)],

which are real and positive for x >= 0 (they equal d e^{-x} times the Taylor
mass of e^x on photon numbers congruent to j mod d).  ``mod_exp_sum`` is the
one evaluation of them, for one index or a tuple of indices at once.  It takes
the complex sum, with an asserted imaginary residue: the exponentials
E_n(x) = exp[-x (1 - w^n)] are taken for n <= d/2 only, shared by every index,
and term d - n is conj(E_n) times its own phase; terms below e^-45 are skipped,
and the points go through in cache-sized blocks.  Where that sum cancelled
(small x, high j: S_j below sum_n |E_n| / 64), the value comes from the
positive series instead, on those points only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from . import fock
from .errors import DegenerateStateError, TruncationError
from .fock import FockVector

#: coherent-tail bound a caller-supplied truncation must certify
GATE_EPS = 1e-10

#: a value of the complex sum is off by about eps sum_n |E_n| / S_j relative, so it is
#: replaced by the positive series where 64 S_j < sum_n |E_n|; those kept are within ~64 eps
_CANCEL = 64.0
#: points per block: 2^14 points make 256 KiB per complex temporary, so the
#: accumulators and the few temporaries of one block stay inside a 2 MiB L2
#: cache, and peak memory does not grow with the array
_BLOCK = 1 << 14
#: term n is skipped where x (1 - cos 2 pi n / d) >= 45: it is below e^-45 < 2^-64,
#: under half an ulp of S_j, which is near 1 at such x (x >= 22.5), and under
#: 2^-11 of the d 2^-53 that rounding the d terms already costs
_SKIP = 45.0


def omega(d: int) -> complex:
    """Primitive d-th root of unity exp(2 pi i / d)."""
    return np.exp(2j * np.pi / d)


def mod_delta(m: int, k: int, d: int) -> int:
    """1 if m = k (mod d) else 0."""
    return 1 if (m - k) % d == 0 else 0


def _check_dims(alpha: float, d: int, k: int) -> None:
    if not np.isfinite(alpha) or alpha < 0:
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


def _class_mass(j: int, x: np.ndarray, d: int) -> np.ndarray:
    """S_j(x) as the positive series d sum_{m = j mod d} e^-x x^m / m!, which cancels nothing."""
    with np.errstate(divide="ignore"):
        lx = np.log(x)  # -inf at x = 0, where every term past m = 0 is exactly 0
    acc, m = np.zeros(x.shape), j
    while True:
        term = np.exp(m * lx - gammaln(m + 1.0) - x) if m else np.exp(-x)
        acc += term
        if m >= x.max() and np.all(term <= 1e-22 * acc):  # past m = x, terms only fall
            return d * acc
        m += d


def mod_exp_sum(j, x, d: int):
    """S_j(x) as defined in the module docstring; x may be a scalar or array.

    ``j`` is an index or a tuple of indices; a tuple stacks the sums on a new
    leading axis.
    """
    js = tuple(i % d for i in (j if isinstance(j, tuple) else (j,)))
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x) & (x >= 0)):
        raise ValueError("x must be finite and >= 0")
    flat = x.reshape(-1)
    out = np.empty((len(js), flat.size))
    roots = np.exp(2j * np.pi * np.arange(d) / d)  # w^n
    for lo in range(0, flat.size, _BLOCK):
        xk = flat[lo:lo + _BLOCK]
        acc = np.ones((len(js), xk.size), dtype=complex)  # the n = 0 terms
        mags = np.ones(xk.size)
        for n in range(1, d // 2 + 1):
            live = xk * (1.0 - roots[n].real) < _SKIP
            if not live.any():
                break  # 1 - cos(2 pi n / d) grows with n up to d/2
            at = slice(None) if live.all() else np.flatnonzero(live)
            e = np.exp(-xk[at] * (1.0 - roots[n]))
            pair = 2 * n != d
            for i, ji in enumerate(js):
                t = roots[-ji * n % d] * e
                if pair:
                    t += roots[-ji * (d - n) % d] * e.conj()
                acc[i, at] += t
            mags[at] += (2.0 if pair else 1.0) * np.abs(e)
        if np.any(np.abs(acc.imag) > 1e-12 * mags):
            raise ArithmeticError("root-of-unity sum has non-negligible imaginary residue")
        out[:, lo:lo + _BLOCK] = acc.real
        for i, ji in enumerate(js):
            cut = np.flatnonzero(_CANCEL * acc.real[i] < mags)
            if cut.size:
                out[i, lo + cut] = _class_mass(ji, xk[cut], d)
    out = out.reshape((len(js),) + x.shape)
    if isinstance(j, tuple):
        return out
    return float(out[0]) if x.ndim == 0 else out[0]


def scs_norm_factor(spec: ScsSpec) -> float:
    """Normalization factor 1/sqrt(d S_k(alpha^2)) of the bare coherent superposition."""
    a, d, k = spec.alpha, spec.d, spec.k
    raw_sq = d * mod_exp_sum(k, a * a, d)  # squared 2-norm of the bare coherent superposition
    if raw_sq < 1e-300:
        raise DegenerateStateError(
            f"coherent superposition degenerates at alpha={a}, d={d}, k={k}; "
            "use the Fock-limit state |k>"
        )
    return 1.0 / np.sqrt(raw_sq)


def scs_state(spec: ScsSpec, trunc: int) -> FockVector:
    """Unit-norm cat-state qudit on the truncated space.

    Components at photon numbers m != k (mod d) are exactly zero.  The state is
    tagged ``fock-limit`` when it holds a single nonzero amplitude: at alpha = 0,
    where it is |k>, or when every other log-weight underflows.
    """
    a, d, k = spec.alpha, spec.d, spec.k
    _gate_trunc(a, trunc)
    if trunc <= k:
        raise TruncationError(f"trunc={trunc} cannot hold support starting at m={k}")
    if a == 0.0:
        return FockVector(fock.basis(k, trunc).amps, tags=frozenset({"fock-limit"}))
    m = np.arange(k, trunc, d, dtype=float)
    logs = m * np.log(a) - 0.5 * gammaln(m + 1.0)
    rel = np.exp(logs - logs.max())
    rel /= np.linalg.norm(rel)
    amps = np.zeros(trunc, dtype=complex)
    amps[np.arange(k, trunc, d)] = rel
    tags = frozenset({"fock-limit"}) if np.count_nonzero(rel) == 1 else frozenset()
    return FockVector(amps, tags=tags)


def hes_state(spec: HesSpec, trunc: int) -> FockVector:
    """Hybrid qudit (1/sqrt d) sum_n w^{-kn} |n> (x) |alpha w^n> as a (d, trunc) row stack.

    The norm equals 1 minus the certified coherent tail; no renormalization is
    applied so the discrete-index marginal stays exactly uniform.
    """
    a, d, k = spec.alpha, spec.d, spec.k
    _gate_trunc(a, trunc)
    w = omega(d)
    rows = np.zeros((d, trunc), dtype=complex)
    for n in range(d):
        rows[n] = w ** (-k * n) * fock.coherent_amps(a * w**n, trunc) / np.sqrt(d)
    return FockVector(rows)


def photon_distribution(state: FockVector) -> np.ndarray:
    """Photon-number probabilities; the discrete index of a hybrid state is traced out."""
    if abs(state.norm() ** 2 - 1.0) > 1e-8:
        raise ValueError("photon_distribution requires a normalized state")
    return state.probs()


def addition_norm_factor(alpha: float, m: int) -> float:
    """Norm of the m-fold photon-added coherent state a-dagger^m |alpha>.

    sqrt( sum_{j=0..m} (m!)^2 / (j! ((m-j)!)^2) alpha^{2(m-j)} ); approaches
    alpha^m for large alpha.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    j = np.arange(m + 1, dtype=float)
    log_coef = 2 * gammaln(m + 1.0) - gammaln(j + 1.0) - 2 * gammaln(m - j + 1.0)
    if alpha == 0.0:
        # only the j = m term survives
        return float(np.exp(0.5 * (2 * gammaln(m + 1.0) - gammaln(m + 1.0))))
    terms = np.exp(log_coef + 2 * (m - j) * np.log(alpha))
    return float(np.sqrt(terms.sum()))


def addition_overlap(alpha: float, beta: float, d: int, k: int, l: int, m: int) -> float:
    """Normalized overlap of the m-photon-added hybrid qudit with a target qudit.

    Vanishes unless l = k + m (mod d); otherwise equals
    beta^m exp[-(alpha-beta)^2 / 2] / addition_norm_factor(alpha, m).
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if alpha < 0 or beta < 0:
        raise ValueError("amplitudes must be >= 0")
    if not mod_delta(l, k + m, d):
        return 0.0
    return float(
        beta**m * np.exp(-0.5 * (alpha - beta) ** 2) / addition_norm_factor(alpha, m)
    )


def optimal_beta(alpha: float, m: int, d: int) -> tuple[float, float]:
    """Target amplitude maximizing the m-addition overlap, and the fidelity there.

    Stationarity of beta^{2m} exp[-(alpha - beta)^2] gives beta^2 - alpha beta - m = 0.
    """
    if m == 0:
        return alpha, 1.0
    beta = 0.5 * (alpha + np.sqrt(alpha * alpha + 4.0 * m))
    return float(beta), addition_overlap(alpha, beta, d, 0, m % d, m) ** 2
