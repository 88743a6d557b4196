"""Single-mode truncated Fock-space linear algebra.

States are complex amplitude arrays over photon numbers 0..N-1: shape (N,)
for one bosonic mode, or (rows, N) for a mode paired with a discrete index
(one row per index value).  Every operation acts on the last (Fock) axis.  All
values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.

Conventions:
  - photon subtraction (annihilation a):   amp[n] <- sqrt(n+1) * amp[n+1]
  - photon addition (creation a-dagger):   amp[n] <- sqrt(n)   * amp[n-1]
Creation silently drops the top component; the squared norm lost that way is
accumulated in the ``leaked`` diagnostic so truncation error stays observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .errors import DegenerateStateError, TruncationError

ADD = "add"
SUBTRACT = "subtract"

#: default certified tail mass for automatically chosen truncations
TAIL_EPS = 1e-14


@dataclass(frozen=True, eq=False)
class FockVector:
    """Complex amplitudes over photon numbers 0..trunc-1, shape (trunc,) or (rows, trunc)."""

    amps: np.ndarray
    leaked: float = 0.0
    tags: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        arr = np.asarray(self.amps, dtype=complex)
        if arr.ndim not in (1, 2) or arr.size < 1:
            raise ValueError("amplitudes must be a non-empty 1-D vector or 2-D row stack")
        if not np.all(np.isfinite(arr)):
            raise ValueError("amplitudes must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "amps", arr)

    @property
    def trunc(self) -> int:
        return self.amps.shape[-1]

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def row(self, n: int) -> "FockVector":
        """Bosonic amplitudes of discrete index n of a row stack."""
        return FockVector(self.amps[n])

    def probs(self) -> np.ndarray:
        """Photon-number probabilities, summed over rows (not normalized here)."""
        return (np.abs(self.amps) ** 2).reshape(-1, self.trunc).sum(axis=0)

    def padded(self, trunc: int) -> "FockVector":
        """Zero-pad (or return unchanged) to at least ``trunc`` components."""
        if trunc <= self.trunc:
            return self
        out = np.zeros(self.amps.shape[:-1] + (trunc,), dtype=complex)
        out[..., : self.trunc] = self.amps
        return FockVector(out, leaked=self.leaked, tags=self.tags)


def basis(n: int, trunc: int) -> FockVector:
    """Number state |n> on a trunc-dimensional space."""
    if not 0 <= n < trunc:
        raise ValueError(f"need 0 <= n < trunc, got n={n}, trunc={trunc}")
    amps = np.zeros(trunc, dtype=complex)
    amps[n] = 1.0
    return FockVector(amps)


def coherent_amps(z: complex, trunc: int) -> np.ndarray:
    """Amplitudes of |z>: exp(-|z|^2/2) z^n / sqrt(n!), via log-gamma."""
    if trunc < 1:
        raise ValueError("trunc must be >= 1")
    if z == 0:
        amps = np.zeros(trunc, dtype=complex)
        amps[0] = 1.0
        return amps
    n = np.arange(trunc)
    r = abs(z)
    phase = z / r
    log_mod = -0.5 * r * r + n * np.log(r) - 0.5 * gammaln(n + 1.0)
    return np.exp(log_mod) * phase**n


def coherent(alpha: float, trunc: int) -> FockVector:
    """Coherent state |alpha> with real amplitude alpha >= 0.

    The vector is not renormalized after truncation; the discarded tail mass
    is available through ``coherent_tail``.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0; build phased states via coherent_amps")
    return FockVector(coherent_amps(alpha, trunc))


def coherent_tail(alpha: float, trunc: int) -> float:
    """Probability mass of |alpha> on photon numbers >= trunc."""
    if alpha == 0:
        return 0.0
    n = np.arange(trunc)
    pmf = np.exp(-alpha * alpha + 2 * n * np.log(alpha) - gammaln(n + 1.0))
    return float(max(0.0, 1.0 - pmf.sum()))


def ladder(v: FockVector, kind: str) -> FockVector:
    """Apply the annihilation (subtract) or creation (add) operator."""
    a = v.amps
    n = v.trunc
    out = np.zeros_like(a)
    if kind == SUBTRACT:
        out[..., : n - 1] = np.sqrt(np.arange(1.0, n)) * a[..., 1:]
        return FockVector(out, leaked=v.leaked, tags=v.tags)
    if kind == ADD:
        out[..., 1:] = np.sqrt(np.arange(1.0, n)) * a[..., : n - 1]
        # |sqrt(n) amp[n-1]|^2 pushed past the boundary, summed over rows
        lost = n * np.sum(np.abs(a[..., n - 1]) ** 2)
        return FockVector(out, leaked=v.leaked + lost, tags=v.tags)
    raise ValueError(f"kind must be '{ADD}' or '{SUBTRACT}', got {kind!r}")


def inner(u: FockVector, v: FockVector) -> complex:
    """<u|v>, conjugate-linear in the first argument; shorter vector is zero-padded.

    Row stacks must have equally many rows; their inner product sums over rows.
    """
    if u.amps.shape[:-1] != v.amps.shape[:-1]:
        raise ValueError("states have different row counts")
    n = max(u.trunc, v.trunc)
    return complex(np.vdot(u.padded(n).amps, v.padded(n).amps))


def normalize(v: FockVector) -> tuple[FockVector, float]:
    """Return (unit vector, pre-normalization 2-norm)."""
    nrm = v.norm()
    if nrm <= 0.0 or not np.isfinite(nrm):
        raise DegenerateStateError("cannot normalize a zero (or non-finite) vector")
    return FockVector(v.amps / nrm, leaked=v.leaked, tags=v.tags), nrm


def _require_normalized(v: FockVector, what: str) -> None:
    if abs(v.norm() ** 2 - 1.0) > 1e-10:
        raise ValueError(f"{what} requires a normalized vector (|norm^2 - 1| > 1e-10)")


def moments(v: FockVector) -> tuple[float, float]:
    """(mean, variance) of the photon number of a normalized state (rows traced out)."""
    _require_normalized(v, "moments")
    p = v.probs()
    n = np.arange(v.trunc)
    mean = float(p @ n)
    var = float(p @ (n * n)) - mean * mean
    return mean, max(var, 0.0)


def quadrature_expect(v: FockVector, lam: float) -> float:
    """<a e^{i lam} + a-dagger e^{-i lam}> of a normalized state (real by construction)."""
    _require_normalized(v, "quadrature_expect")
    a = v.amps
    a_expect = np.vdot(a[..., :-1], np.sqrt(np.arange(1.0, v.trunc)) * a[..., 1:])
    return float(2.0 * np.real(np.exp(1j * lam) * a_expect))


def min_trunc(alpha_max: float, epsilon: float) -> int:
    """Smallest N with Poisson(alpha_max^2) tail mass below epsilon.

    Callers enlarge the result by the number of photon additions in their
    pipeline (plus slack) before building states.
    """
    if alpha_max < 0:
        raise ValueError("alpha_max must be >= 0")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if alpha_max == 0.0:
        return 1
    lam = alpha_max * alpha_max
    log_pmf = -lam
    cum = np.exp(log_pmf)
    n = 0
    while 1.0 - cum >= epsilon:
        n += 1
        log_pmf += np.log(lam) - np.log(n)
        cum += np.exp(log_pmf)
        if n > 100_000:
            raise RuntimeError("tail summation failed to converge")
    return n + 1


def auto_trunc(alpha_max: float, additions: int = 0, epsilon: float = TAIL_EPS) -> int:
    """Truncation policy: certified tail below epsilon plus headroom for additions."""
    return min_trunc(alpha_max, epsilon) + additions + 2


def check_leak(v: FockVector, epsilon: float = TAIL_EPS) -> FockVector:
    """Fail loudly if a pipeline accumulated more truncation leakage than epsilon."""
    if v.leaked > epsilon:
        raise TruncationError(
            f"leaked probability mass {v.leaked:.3e} exceeds tolerance {epsilon:.1e}; "
            "increase the truncation"
        )
    return v


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix on the truncated space."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValueError("density matrix must be Hermitian to 1e-12")
        if abs(np.trace(m).real - 1.0) > 1e-12 or abs(np.trace(m).imag) > 1e-12:
            raise ValueError("density matrix must have unit trace to 1e-12")
        eig = np.linalg.eigvalsh(m)
        if eig.min() < -1e-10:
            raise ValueError("density matrix must be positive semidefinite (eig >= -1e-10)")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_pure(cls, v: FockVector) -> "DensityMatrix":
        _require_normalized(v, "DensityMatrix.from_pure")
        if v.amps.size != v.trunc:
            # np.outer would flatten the rows into one long vector
            raise ValueError("DensityMatrix.from_pure needs a single-row state")
        return cls(np.outer(v.amps, v.amps.conj()))
