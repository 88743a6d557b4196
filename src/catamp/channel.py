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

The generator conserves n_system + n_ancilla.  Its eigensystem on each
photon-number sector is gamma-free, so it is cached once per sector as
read-only arrays; theta enters only as the phase exp(i theta lam) applied in
that eigenbasis.

A heralded stage starts from |v> (x) |anc_in> and keeps ancilla |anc_out>, so
each sector holds one input amplitude and contributes one output amplitude:
the stage needs one element <n_out, anc_out| U |n_in, anc_in> per sector, not
the sector's full unitary.  The weights of those elements in the eigenbasis
form a gamma-free table, cached once per grid.  The tests check the stage
against the whole two-mode unitary, built from eigensystems of their own.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import fock, states
from .analytic import scheme_word
from .errors import DegenerateStateError
from .fock import ADD, SUBTRACT, FockVector

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


@functools.cache
def _sector_eig(total: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystem (lam, vec) of a-dagger b + a b-dagger on |ns, total - ns>, ns = total..0.

    The generator is real, symmetric and tridiagonal there; the arrays are shared, hence read-only.
    """
    ns = np.arange(total, 0, -1, dtype=float)
    off = np.sqrt(ns * (total - ns + 1.0))
    lam, vec = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    lam.flags.writeable = vec.flags.writeable = False
    return lam, vec


@functools.cache
def _herald_table(dim: int, anc_in: int, anc_out: int) -> tuple[np.ndarray, ...]:
    """Flat gamma-free table of <n_out, anc_out| U |n_in, anc_in> on a dim x dim grid.

    Sector `total` holds n_in = total - anc_in and n_out = total - anc_out, both
    below dim; its element is sum_i w_i exp(i theta lam_i) over the segment of
    (lam, w) that begins at its start.  A stage heralds from or onto an empty
    ancilla, so total < dim: every sector is complete, and in its eigensystem
    the row of |n, total - n> is total - n.
    Returns read-only (lam, w, starts, n_in, n_out).
    """
    totals = np.arange(max(anc_in, anc_out), dim + min(anc_in, anc_out))
    lams, ws = [], []
    for total in totals.tolist():
        lam, vec = _sector_eig(total)
        lams.append(lam)
        ws.append(vec[anc_out] * vec[anc_in])
    starts = np.concatenate(([0], np.cumsum([lam.size for lam in lams[:-1]])))
    table = (np.concatenate(lams), np.concatenate(ws), starts, totals - anc_in, totals - anc_out)
    for a in table:
        a.flags.writeable = False
    return table


def heralded_op(v: FockVector, bs: BeamSplitter, kind: str) -> tuple[FockVector, float]:
    """One heralded stage of the circuit; returns (normalized output, herald probability).

    The two-mode grid is enlarged to dim = trunc + 2 so every populated
    photon-number sector is complete, making the stage exact rather than
    truncation-limited.  Each sector maps the one input amplitude v[n_in] to the
    one heralded amplitude u * v[n_in], with u its unitary element from
    `_herald_table`; every row of a row stack shares those elements.  The herald
    is global, so the probability sums over rows.
    """
    if kind not in (ADD, SUBTRACT):
        raise ValueError(f"kind must be '{ADD}' or '{SUBTRACT}', got {kind!r}")
    if abs(v.norm() ** 2 - 1.0) > 1e-10:
        raise ValueError("heralded_op requires a normalized input")
    dim = v.trunc + 2
    anc_in = 1 if kind == ADD else 0
    anc_out = 0 if kind == ADD else 1
    lam, w, starts, n_in, n_out = _herald_table(dim, anc_in, anc_out)
    u = np.add.reduceat(w * np.exp(1j * bs.theta * lam), starts)
    branch = np.zeros(v.amps.shape[:-1] + (dim,), dtype=complex)
    branch[..., n_out] = u * v.padded(dim).amps[..., n_in]
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


def _kraus_scheme(v: FockVector, s, gamma: float) -> FockVector:
    for kind in reversed(scheme_word(s)):  # one stage per letter, rightmost first
        v = kraus_apply(v, gamma, kind)
    return v


def scheme_success_prob(state: FockVector, s, gamma: float) -> float:
    """Joint herald probability of a scheme circuit on a normalized input."""
    return float(np.linalg.norm(_kraus_scheme(state, s, gamma).amps) ** 2)


def _circuit_scheme(v: FockVector, s, gamma: float) -> tuple[FockVector, float]:
    bs = BeamSplitter(gamma)
    prob = 1.0
    for kind in reversed(scheme_word(s)):
        v, p = heralded_op(v, bs, kind)
        prob *= p
    return v, prob


def compare_sim_vs_kraus(spec, s, gamma: float, trunc: int) -> tuple[float, float, float]:
    """Full circuit simulation versus closed-form operators on one input state.

    Returns (p_sim, p_kraus, squared overlap of the two normalized outputs).
    Accepts a cat-state or hybrid spec; for hybrid states the circuit acts on
    the bosonic mode of every discrete block with global heralding.
    """
    v = states.build(spec, trunc)
    sim_state, p_sim = _circuit_scheme(v, s, gamma)
    kr = _kraus_scheme(v, s, gamma)
    p_kraus = float(np.linalg.norm(kr.amps) ** 2)
    kr_state, _ = fock.normalize(kr)
    return p_sim, p_kraus, abs(fock.inner(sim_state, kr_state)) ** 2
