"""Heralded linear-optics realization of the amplification schemes.

A beam splitter with tap probability gamma couples the system mode to an
ancilla mode through U = exp[i theta (a-dagger b + a b-dagger)] with
theta = arcsin(sqrt(gamma)), so a lone photon hops between the modes with
probability gamma and stays put with probability 1 - gamma.

Heralded elementary operations (ideal detectors distinguishing vacuum from a
single photon):

  subtract:  ancilla in |0>, herald on |1>   ->  K_sub = sqrt(g) (1-g)^{n/2} a
  add:       ancilla in |1>, herald on |0>   ->  K_add = sqrt(g) (1-g)^{(n-1)/2} a-dagger

These closed forms are exact for the circuit (up to a global phase), so the
full two-mode simulation and the operator route agree to machine precision.
The scheme circuits cascade two such stages sharing one gamma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fock, states
from .analytic import Scheme, as_scheme
from .errors import DegenerateStateError
from .fock import ADD, SUBTRACT, FockVector
from .states import HesSpec, ScsSpec

HERALD_FLOOR = 1e-300


@dataclass(frozen=True)
class BeamSplitter:
    """Two-mode coupler; gamma is the single-photon mode-hopping probability."""

    gamma: float

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie strictly between 0 and 1")

    @property
    def theta(self) -> float:
        return float(np.arcsin(np.sqrt(self.gamma)))


@dataclass(frozen=True, eq=False)
class TwoModeFock:
    """Amplitudes over |n_system, n_ancilla>; rows system, columns ancilla."""

    amps: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.amps, dtype=complex)
        if m.ndim != 2:
            raise ValueError("two-mode amplitudes must form a matrix")
        if not np.all(np.isfinite(m)):
            raise ValueError("amplitudes must be finite")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "amps", m)

    @property
    def dims(self) -> tuple[int, int]:
        return self.amps.shape

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def two_mode_product(v: FockVector, ancilla_n: int, dim_a: int) -> TwoModeFock:
    """|v> (x) |ancilla_n> on a (v.trunc, dim_a) grid."""
    if not 0 <= ancilla_n < dim_a:
        raise ValueError("ancilla occupation outside its truncation")
    m = np.zeros((v.trunc, dim_a), dtype=complex)
    m[:, ancilla_n] = v.amps
    return TwoModeFock(m)


def _sector_unitaries(bs: BeamSplitter, dims: tuple[int, int]) -> list[np.ndarray]:
    """exp[i theta G] restricted to each total-photon-number sector.

    The generator conserves n_s + n_a, so each sector is exponentiated densely
    via its (real, symmetric, tridiagonal) restriction.
    """
    ns_dim, na_dim = dims
    out = []
    for total in range(ns_dim + na_dim - 1):
        ns_hi = min(total, ns_dim - 1)
        ns_lo = max(0, total - na_dim + 1)
        size = ns_hi - ns_lo + 1
        gen = np.zeros((size, size))
        for i in range(size - 1):
            ns = ns_hi - i  # order sectors by descending system occupation
            na = total - ns
            gen[i, i + 1] = gen[i + 1, i] = np.sqrt(ns * (na + 1.0))
        lam, vec = np.linalg.eigh(gen)
        out.append((vec * np.exp(1j * bs.theta * lam)) @ vec.T)
    return out


def bs_apply(state: TwoModeFock, bs: BeamSplitter) -> TwoModeFock:
    """Apply the beam splitter exactly on every total-photon-number sector."""
    ns_dim, na_dim = state.dims
    out = np.zeros_like(state.amps)
    unitaries = _sector_unitaries(bs, state.dims)
    for total, u in enumerate(unitaries):
        ns_hi = min(total, ns_dim - 1)
        ns_lo = max(0, total - na_dim + 1)
        rows = np.arange(ns_hi, ns_lo - 1, -1)
        cols = total - rows
        out[rows, cols] = u @ state.amps[rows, cols]
    return TwoModeFock(out)


def heralded_op(v: FockVector, bs: BeamSplitter, kind: str) -> tuple[FockVector, float]:
    """One heralded stage of the circuit; returns (normalized output, herald probability).

    The two-mode grid is enlarged so every populated photon-number sector is
    complete, making the stage exact rather than truncation-limited.  Each row
    of a row stack passes the beam splitter on its own; the herald is global,
    so the probability sums over rows.
    """
    if kind not in (ADD, SUBTRACT):
        raise ValueError(f"kind must be '{ADD}' or '{SUBTRACT}', got {kind!r}")
    if abs(v.norm() ** 2 - 1.0) > 1e-10:
        raise ValueError("heralded_op requires a normalized input")
    dim = v.trunc + 2
    anc_in = 1 if kind == ADD else 0
    anc_out = 0 if kind == ADD else 1
    rows = v.padded(dim).amps.reshape(-1, dim)
    branch = np.array(
        [bs_apply(two_mode_product(FockVector(r), anc_in, dim), bs).amps[:, anc_out] for r in rows]
    ).reshape(v.amps.shape[:-1] + (dim,))
    prob = float(np.linalg.norm(branch) ** 2)
    if prob < HERALD_FLOOR:
        raise DegenerateStateError(f"herald probability {prob} below {HERALD_FLOOR}")
    return FockVector(branch / np.sqrt(prob)), prob


def kraus_apply(v: FockVector, gamma: float, kind: str) -> FockVector:
    """Closed-form conditional operator for one heralded stage (unnormalized output).

    The squared norm of the result equals the herald probability of the
    corresponding circuit stage.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie strictly between 0 and 1")
    if kind == SUBTRACT:
        w = fock.ladder(v, SUBTRACT)
        weight = (1.0 - gamma) ** (np.arange(w.trunc) / 2.0)
        return FockVector(np.sqrt(gamma) * weight * w.amps, leaked=w.leaked)
    if kind == ADD:
        w = fock.ladder(v.padded(v.trunc + 1), ADD)
        n = np.arange(w.trunc)
        weight = (1.0 - gamma) ** (np.maximum(n - 1, 0) / 2.0)  # component at n=0 is zero
        return FockVector(np.sqrt(gamma) * weight * w.amps, leaked=w.leaked)
    raise ValueError(f"kind must be '{ADD}' or '{SUBTRACT}', got {kind!r}")


def _scheme_kinds(s: Scheme) -> tuple[str, str]:
    """Stage order (first, second) of a scheme circuit."""
    return (ADD, SUBTRACT) if s is Scheme.AADAG else (ADD, ADD)


def _kraus_scheme(v: FockVector, s: Scheme, gamma: float) -> FockVector:
    first, second = _scheme_kinds(s)
    return kraus_apply(kraus_apply(v, gamma, first), gamma, second)


def scheme_success_prob(state: FockVector, s, gamma: float) -> float:
    """Joint herald probability of a scheme circuit on a normalized input."""
    return float(np.linalg.norm(_kraus_scheme(state, as_scheme(s), gamma).amps) ** 2)


def _circuit_scheme(v: FockVector, s: Scheme, gamma: float) -> tuple[FockVector, float]:
    bs = BeamSplitter(gamma)
    first, second = _scheme_kinds(s)
    out1, p1 = heralded_op(v, bs, first)
    out2, p2 = heralded_op(out1, bs, second)
    return out2, p1 * p2


def compare_sim_vs_kraus(spec, s, gamma: float, trunc: int) -> tuple[float, float, float]:
    """Full circuit simulation versus closed-form operators on one input state.

    Returns (p_sim, p_kraus, squared overlap of the two normalized outputs).
    Accepts a cat-state or hybrid spec; for hybrid states the circuit acts on
    the bosonic mode of every discrete block with global heralding.
    """
    s = as_scheme(s)
    if isinstance(spec, ScsSpec):
        v = states.scs_state(spec, trunc)
    elif isinstance(spec, HesSpec):
        v = states.hes_state(spec, trunc)
    else:
        raise TypeError(f"spec must be ScsSpec or HesSpec, got {type(spec).__name__}")
    sim_state, p_sim = _circuit_scheme(v, s, gamma)
    kr = _kraus_scheme(v, s, gamma)
    p_kraus = float(np.linalg.norm(kr.amps) ** 2)
    kr_state, _ = fock.normalize(kr)
    return p_sim, p_kraus, abs(fock.inner(sim_state, kr_state)) ** 2
