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
form a gamma-free table, cached once per input width.  The tests check the stage
against the whole two-mode unitary, built from eigensystems of their own.
"""

from __future__ import annotations

import functools

import numpy as np

from . import fock, states
from .analytic import scheme_word
from .fock import ADD, SUBTRACT, FockVector


def _stage_lo(gamma: float, kind: str) -> int:
    """Validate one stage's (gamma, kind); 1 for an addition, which widens the vector by one."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie strictly between 0 and 1")
    if kind not in (ADD, SUBTRACT):
        raise ValueError(f"kind must be '{ADD}' or '{SUBTRACT}', got {kind!r}")
    return int(kind == ADD)


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
def _herald_table(trunc: int, anc_in: int, anc_out: int) -> tuple[np.ndarray, ...]:
    """Flat gamma-free table of <n_out, anc_out| U |n_in, anc_in> for inputs n_in < trunc.

    Sector `total` holds n_in = total - anc_in and n_out = total - anc_out; its
    element is sum_i w_i exp(i theta lam_i) over the segment of (lam, w) that
    begins at its start.  A stage heralds from or onto an empty ancilla, so in
    the eigensystem of a sector the row of |n, total - n> is total - n.  A
    subtraction from a one-component input has no sector: the table is empty.
    Returns read-only (lam, w, starts, n_in, n_out).
    """
    totals = np.arange(max(anc_in, anc_out), trunc + anc_in)
    eigs = [_sector_eig(total) for total in totals.tolist()]
    sizes = totals + 1  # sector `total` holds total + 1 states
    table = (np.concatenate([np.empty(0)] + [lam for lam, _ in eigs]),
             np.concatenate([np.empty(0)] + [vec[anc_out] * vec[anc_in] for _, vec in eigs]),
             np.cumsum(sizes) - sizes, totals - anc_in, totals - anc_out)
    for a in table:
        a.flags.writeable = False
    return table


def heralded_op(v: FockVector, gamma: float, kind: str) -> FockVector:
    """One heralded stage of the circuit; returns its raw (unnormalized) branch.

    Each sector maps the one input amplitude v[n_in] to the one heralded
    amplitude u * v[n_in], with u its unitary element from `_herald_table`; every
    row of a row stack shares those elements.  The sectors are complete, so the
    stage is exact rather than truncation-limited; like ``kraus_apply``, an
    addition widens the vector by one.  The herald is global, so its
    probability is the squared norm of the branch, summed over rows.
    """
    lo = _stage_lo(gamma, kind)
    lam, w, starts, n_in, n_out = _herald_table(v.trunc, lo, 1 - lo)  # ancilla |lo> -> |1 - lo>
    u = np.add.reduceat(w * np.exp(1j * float(np.arcsin(np.sqrt(gamma))) * lam), starts)
    branch = np.zeros(v.amps.shape[:-1] + (v.trunc + lo,), dtype=complex)
    branch[..., n_out] = u * v.amps[..., n_in]
    return FockVector(branch)


def kraus_apply(v: FockVector, gamma: float, kind: str) -> FockVector:
    """Closed-form conditional operator for one heralded stage (unnormalized output).

    With c_m = sqrt(g) (1-g)^{m/2} sqrt(m+1), output m of a subtraction is
    c_m v[m+1] and output m + 1 of an addition is c_m v[m], in one array pass.
    An addition widens the vector by one, so it drops nothing.  The squared
    norm of the result equals the herald probability of the corresponding
    circuit stage.
    """
    lo = _stage_lo(gamma, kind)  # the output photon number of factor m is m + lo
    src = v.amps[..., 1 - lo:]
    m = np.arange(src.shape[-1])
    out = np.zeros(v.amps.shape[:-1] + (v.trunc + lo,), dtype=complex)
    out[..., lo:lo + m.size] = np.sqrt(gamma) * (1.0 - gamma) ** (m / 2.0) * (np.sqrt(m + 1.0) * src)
    return FockVector(out)


def _cascade(v: FockVector, s, gamma: float, stage) -> FockVector:
    """The raw branch of scheme ``s``: one ``stage(v, gamma, kind)`` per letter, rightmost first."""
    for kind in reversed(scheme_word(s)):
        v = stage(v, gamma, kind)
    return v


def scheme_success_prob(state: FockVector, s, gamma: float) -> float:
    """Joint herald probability of a scheme circuit on a normalized input."""
    return float(np.linalg.norm(_cascade(state, s, gamma, kraus_apply).amps) ** 2)


def compare_sim_vs_kraus(spec, s, gamma: float, trunc: int) -> tuple[float, float, float]:
    """Full circuit simulation versus closed-form operators on one input state.

    Returns (p_sim, p_kraus, squared overlap of the two normalized outputs).
    Accepts a cat-state or hybrid spec; for hybrid states the circuit acts on
    the bosonic mode of every discrete block with global heralding.
    """
    v = states.build(spec, trunc)
    sim = _cascade(v, s, gamma, heralded_op)
    kr = _cascade(v, s, gamma, kraus_apply)
    p_sim, p_kraus = (float(np.linalg.norm(b.amps) ** 2) for b in (sim, kr))
    return p_sim, p_kraus, abs(fock.inner(fock.normalize(sim)[0], fock.normalize(kr)[0])) ** 2
