"""Fourier intrinsic band decomposition of sampled records."""

from .errors import (
    BandRangeError,
    ContractError,
    FdmkitError,
    IngestionError,
    InputError,
    ParameterError,
)
from .fdm import (
    Afibf,
    DecompositionResult,
    FdmConfig,
    ScanDirection,
    SearchMode,
    decompose,
    inst_freq,
    reconstruct,
    unwrap_phase,
)
from .mfdm import (
    CutoffSchedule,
    MfdmResult,
    MultichannelSignal,
    cutoff_schedule,
    mfdm_decompose,
    retained_bins,
    zero_phase_highpass,
)
from .siggen import GeneratorSpec, aligned_tone_fixture, generate
from .spectral import (
    Signal,
    Spectrum,
    analytic_band,
    analytic_energy,
    dft,
    signal_energy,
)
from .tfe import (
    TfeGrid,
    TfePoints,
    fhs,
    instantaneous_energy,
    marginal_spectrum,
    rasterize,
)

__version__ = "0.1.0"

__all__ = [
    "Afibf",
    "BandRangeError",
    "ContractError",
    "CutoffSchedule",
    "DecompositionResult",
    "FdmConfig",
    "FdmkitError",
    "GeneratorSpec",
    "IngestionError",
    "InputError",
    "MfdmResult",
    "MultichannelSignal",
    "ParameterError",
    "ScanDirection",
    "SearchMode",
    "Signal",
    "Spectrum",
    "TfeGrid",
    "TfePoints",
    "aligned_tone_fixture",
    "analytic_band",
    "analytic_energy",
    "cutoff_schedule",
    "decompose",
    "dft",
    "fhs",
    "generate",
    "inst_freq",
    "instantaneous_energy",
    "marginal_spectrum",
    "mfdm_decompose",
    "rasterize",
    "reconstruct",
    "retained_bins",
    "signal_energy",
    "unwrap_phase",
    "zero_phase_highpass",
]
