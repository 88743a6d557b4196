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
one evaluation of them, for one index or a tuple of indices at once.  It works
in real arithmetic: with theta_q = 2 pi q / d, terms n and d - n are complex
conjugates, so together they give

    2 exp[-x (1 - cos theta_n)] cos(x sin theta_n - theta_{jn mod d}),

and the unpaired n = d/2 term is exp(-2x) times +1 at even j and -1 at odd j:
it is live only for x < 22.5, where its phase x sin(pi) is below 3e-15, so the
cosine of it is exactly +-1 and none is taken.  So each n < d/2 costs one real
exponential, shared by every index, and one cosine per index; no imaginary
part is ever formed.  Terms below e^-45 are skipped.  Where that sum cancelled
(small x, high j: S_j below sum_n |E_n| / 64, with E_n(x) = exp[-x (1 - w^n)]),
the value comes from the positive series instead, on those points only.  The
kernel works on the whole array it is given; its one array caller,
``analytic.scs_fidelity``, passes it cache-sized blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .errors import TruncationError
from .fock import FockVector

#: coherent-tail bound a caller-supplied truncation must certify
GATE_EPS = 1e-10

#: a value of the root-of-unity sum is off by about eps sum_n |E_n| / S_j relative, so it is
#: replaced by the positive series where 64 S_j < sum_n |E_n|; those kept are within ~64 eps
_CANCEL = 64.0
#: term n is skipped where x (1 - cos 2 pi n / d) >= 45: it is below e^-45 < 2^-64,
#: under half an ulp of S_j, which is near 1 at such x (x >= 22.5), and under
#: 2^-11 of the d 2^-53 that rounding the d terms already costs
_SKIP = 45.0


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


def _class_mass(j: int, x: np.ndarray, d: int) -> np.ndarray:
    """S_j(x) as the positive series d sum_{m = j mod d} e^-x x^m / m!, which cancels nothing."""
    with np.errstate(divide="ignore"):
        lx = np.log(x)  # -inf at x = 0, where every term past m = 0 is exactly 0
    acc, m = np.zeros(x.shape), j
    while True:
        term = np.exp(m * lx - math.lgamma(m + 1.0) - x) if m else np.exp(-x)
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
    out = np.ones((len(js), flat.size))  # the n = 0 terms
    mags = np.ones(flat.size)
    theta = 2.0 * np.pi * np.arange(d) / d
    cos, sin = np.cos(theta), np.sin(theta)
    for n in range(1, d // 2 + 1):
        live = flat * (1.0 - cos[n]) < _SKIP
        if not live.any():
            break  # 1 - cos(2 pi n / d) grows with n up to d/2
        at = slice(None) if live.all() else np.flatnonzero(live)
        xl = flat[at]
        if 2 * n == d:  # unpaired: cos(x sin(pi) - pi j) is exactly (-1)^j at x < 22.5
            mag = np.exp(-xl * (1.0 - cos[n]))
            for i, ji in enumerate(js):
                if ji % 2:
                    out[i, at] -= mag
                else:
                    out[i, at] += mag
        else:
            mag = 2.0 * np.exp(-xl * (1.0 - cos[n]))
            phase = xl * sin[n]
            for i, ji in enumerate(js):
                out[i, at] += mag * np.cos(phase - theta[ji * n % d])
        mags[at] += mag
    for i, ji in enumerate(js):
        cut = np.flatnonzero(_CANCEL * out[i] < mags)
        if cut.size:
            out[i, cut] = _class_mass(ji, flat[cut], d)
    out = out.reshape((len(js),) + x.shape)
    if isinstance(j, tuple):
        return out
    return float(out[0]) if x.ndim == 0 else out[0]


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
