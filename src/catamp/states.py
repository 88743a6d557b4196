"""Cat-state qudits and hybrid entangled qudits.

A cat-state qudit with index k superposes d coherent states |alpha w^n> with
relative phases w^{-kn}, where w = exp(2 pi i / d).  Its Fock support sits on
photon numbers congruent to k (mod d), which is exploited here: cat states are
built directly on that support, so the off-support amplitudes are exactly zero
and small-amplitude states stay numerically clean.

A hybrid qudit pairs a discrete index n with the coherent state |alpha w^n>:
    (1/sqrt d) sum_n w^{-kn} |n> (x) |alpha w^n>
It is held as a d-row FockVector whose row n is the bosonic block of |n>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from . import fock
from .errors import DegenerateStateError, OptimizationError, TruncationError
from .fock import FockVector

#: coherent-tail bound a caller-supplied truncation must certify
GATE_EPS = 1e-10


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


def scs_norm_factor(spec: ScsSpec) -> float:
    """Normalization factor 1/sqrt(d sum_n w^{-kn} exp[-alpha^2 (1 - w^n)])."""
    a, d, k = spec.alpha, spec.d, spec.k
    w = omega(d)
    terms = np.array([w ** (-k * n) * np.exp(-a * a * (1.0 - w**n)) for n in range(d)])
    s = terms.sum()
    scale = np.abs(terms).sum()
    if abs(s.imag) > 1e-12 * max(1.0, scale):
        raise ArithmeticError(f"norm-factor sum has imaginary residue {s.imag:.3e}")
    raw_sq = d * s.real  # squared 2-norm of the bare coherent superposition
    if raw_sq < 1e-300:
        raise DegenerateStateError(
            f"coherent superposition degenerates at alpha={a}, d={d}, k={k}; "
            "use the Fock-limit state |k>"
        )
    return 1.0 / np.sqrt(raw_sq)


def scs_state(spec: ScsSpec, trunc: int) -> FockVector:
    """Unit-norm cat-state qudit on the truncated space.

    Components at photon numbers m != k (mod d) are exactly zero.  At alpha = 0
    (or when the bare superposition underflows) the state reduces to |k> and is
    tagged ``fock-limit``.
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
    tags = frozenset()
    try:
        scs_norm_factor(spec)
    except DegenerateStateError:
        tags = frozenset({"fock-limit"})
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
    """Target amplitude maximizing the m-addition overlap, and the fidelity there."""
    from . import optimize  # deferred: optimize imports analytic which imports states

    if m == 0:
        return alpha, 1.0
    lo = max(alpha - 3.0, 0.01)
    hi = alpha + m + 3.0

    def fidelity(beta: float) -> float:
        return addition_overlap(alpha, beta, d, 0, m % d, m) ** 2

    res = optimize.maximize_scalar(fidelity, lo, hi, tol=1e-10)
    if not res.converged:
        raise OptimizationError("target-amplitude search did not converge", result=res)
    return res.argmax, res.value
