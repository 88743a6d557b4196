"""Truncated Fock-space laboratory for probabilistic amplification of
cat-state qudits and hybrid entangled states."""

from .amplify import AADAG, ADAG2, apply_word, scs_amplified
from .analytic import (
    Scheme,
    hes_fidelity,
    hes_gain,
    hes_qfi,
    qfi_ratio,
    scs_fidelity,
    scs_qfi,
)
from .channel import compare_sim_vs_kraus, heralded_op, kraus_apply
from .errors import (
    CatampError,
    DegenerateStateError,
    DivergentGainError,
    OptimizationError,
    TruncationError,
)
from .fock import FockVector, coherent, inner, min_trunc, normalize
from .optimize import OptResult, find_crossing, scs_gain
from .states import HesSpec, ScsSpec, hes_state, scs_state

__version__ = "0.1.0"

__all__ = [
    "AADAG",
    "ADAG2",
    "CatampError",
    "DegenerateStateError",
    "DivergentGainError",
    "FockVector",
    "HesSpec",
    "OptResult",
    "OptimizationError",
    "Scheme",
    "ScsSpec",
    "TruncationError",
    "apply_word",
    "coherent",
    "compare_sim_vs_kraus",
    "find_crossing",
    "heralded_op",
    "hes_fidelity",
    "hes_gain",
    "hes_qfi",
    "hes_state",
    "inner",
    "kraus_apply",
    "min_trunc",
    "normalize",
    "qfi_ratio",
    "scs_amplified",
    "scs_fidelity",
    "scs_gain",
    "scs_qfi",
    "scs_state",
]
