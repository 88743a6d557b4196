"""Truncated Fock-space laboratory for probabilistic amplification of
cat-state qudits and hybrid entangled states."""

from .amplify import AADAG, ADAG2, apply_word, hes_amplified, scs_amplified
from .analytic import (
    Scheme,
    hes_fidelity,
    hes_gain,
    hes_qfi,
    qfi_ratio,
    qfi_spectral,
    scs_fidelity,
    scs_qfi,
)
from .channel import BeamSplitter, compare_sim_vs_kraus, heralded_op, kraus_apply
from .errors import (
    CatampError,
    DegenerateStateError,
    DivergentGainError,
    OptimizationError,
    TruncationError,
)
from .fock import DensityMatrix, FockVector, coherent, inner, min_trunc, normalize
from .optimize import OptResult, find_crossing, maximize_scalar, scs_gain
from .states import HesSpec, ScsSpec, hes_state, scs_state

__version__ = "0.1.0"

__all__ = [
    "AADAG",
    "ADAG2",
    "BeamSplitter",
    "CatampError",
    "DegenerateStateError",
    "DensityMatrix",
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
    "hes_amplified",
    "hes_fidelity",
    "hes_gain",
    "hes_qfi",
    "hes_state",
    "inner",
    "kraus_apply",
    "maximize_scalar",
    "min_trunc",
    "normalize",
    "qfi_ratio",
    "qfi_spectral",
    "scs_amplified",
    "scs_fidelity",
    "scs_gain",
    "scs_qfi",
    "scs_state",
]
