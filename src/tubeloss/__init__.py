"""tubeloss: impedance-tube transmission loss and two-room insertion loss toolkit.

Four-microphone pressure spectra go through plane-wave decomposition, a
one-load transfer-matrix reconstruction, and indicator extraction; two-room
sound pressure level tables yield insertion loss per third-octave band.
Analytic layer models and a seeded synthetic bench double as verification
oracles for the whole pipeline.
"""
from .bands import (
    BandTable,
    ThirdOctaveBand,
    average_repetitions,
    band_average,
    band_from_nominal,
    energetic_spl_average,
    insertion_loss,
    third_octave_bands,
)
from .core import (
    DEFAULT_AIR,
    AirProperties,
    FrequencyGrid,
    MaterialSpec,
    MicSpectra,
    TubeGeometry,
    plane_wave_cutoff,
    surface_density,
    wavenumber,
)
from .decompose import (
    SINGULARITY_TOLERANCE,
    PlaneWaveAmplitudes,
    decompose_four_mic,
    decompose_pair,
)
from .errors import (
    AllBinsInvalidError,
    AnechoicQualityWarning,
    BandMismatchError,
    ConfigMismatchError,
    GridMismatchError,
    InputFormatError,
    NegativeInsertionLossWarning,
    NumericalValidityError,
    PlaneWaveCutoffWarning,
    SingularBinWarning,
    TubelossError,
)
from .models import (
    LayerModel,
    air_gap_matrix,
    cascade,
    identity_matrix,
    limp_mass_matrix,
    mass_law_constant_db,
    mass_law_stl,
    stack_indicators,
    stack_thickness,
)
from .pipeline import QUALITY_THRESHOLD, TubeAnalysis, analyze_four_mic
from .synth import SynthScenario, synth_mic_pressures, synth_room_levels
from .transfer import (
    AcousticIndicators,
    TransferMatrix,
    acoustic_indicators,
    anechoic_quality,
    boundary_states,
    reconstruct_one_load,
    rigid_backing_reflection,
    stl,
    stl_direct_anechoic,
    surface_impedance_anechoic,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "AirProperties",
    "DEFAULT_AIR",
    "TubeGeometry",
    "FrequencyGrid",
    "MicSpectra",
    "MaterialSpec",
    "wavenumber",
    "plane_wave_cutoff",
    "surface_density",
    # decomposition
    "SINGULARITY_TOLERANCE",
    "PlaneWaveAmplitudes",
    "decompose_pair",
    "decompose_four_mic",
    # transfer matrix
    "TransferMatrix",
    "AcousticIndicators",
    "boundary_states",
    "reconstruct_one_load",
    "surface_impedance_anechoic",
    "rigid_backing_reflection",
    "stl",
    "anechoic_quality",
    "stl_direct_anechoic",
    "acoustic_indicators",
    # pipeline
    "QUALITY_THRESHOLD",
    "TubeAnalysis",
    "analyze_four_mic",
    # analytic models
    "LayerModel",
    "mass_law_constant_db",
    "mass_law_stl",
    "limp_mass_matrix",
    "air_gap_matrix",
    "identity_matrix",
    "cascade",
    "stack_thickness",
    "stack_indicators",
    # bands
    "ThirdOctaveBand",
    "third_octave_bands",
    "band_from_nominal",
    "BandTable",
    "band_average",
    "average_repetitions",
    "energetic_spl_average",
    "insertion_loss",
    # synthetic bench
    "SynthScenario",
    "synth_mic_pressures",
    "synth_room_levels",
    # errors and warnings
    "TubelossError",
    "GridMismatchError",
    "BandMismatchError",
    "InputFormatError",
    "ConfigMismatchError",
    "NumericalValidityError",
    "AllBinsInvalidError",
    "PlaneWaveCutoffWarning",
    "SingularBinWarning",
    "AnechoicQualityWarning",
    "NegativeInsertionLossWarning",
]
