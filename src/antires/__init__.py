"""antires: steady-state spectra and antiresonance analysis of coupled-mode networks.

The package simulates weakly driven networks of dissipative modes, extracts
the poles (resonances) and zeros (antiresonances) of their transmission,
fits dispersive phase profiles, and localises loss by comparing
antiresonance widths across drive ports.  An exact quantum (Lindblad) solver
for the same networks, emitters as two-level systems, anchors the linear model.
"""

__version__ = "0.1.0"

from .network import (
    InvalidNetworkError,
    Mode,
    ModeNetwork,
    ProbeGrid,
    SingularResponseError,
    SteadyState,
    closed_form_two_mode,
    load_network,
    save_network,
    steady_state,
    steady_state_batch,
    steady_state_family,
)
from .spectra import (
    AmbiguityError,
    AntiresonanceZero,
    ComplexSpectrum,
    LossyVerdict,
    MotionEnsemble,
    ResonancePole,
    antiresonances,
    cancel_pole_zero_pairs,
    detect_antiresonances_numeric,
    lossy_component_identify,
    read_spectrum_csv,
    resonances,
    sweep,
    write_spectrum_csv,
)
from .fitting import (
    ArctanPhaseFit,
    FitConvergenceError,
    FitResult,
    RankDeficiencyError,
    StarkCalibration,
    fit_arctan_phase,
    fit_nlls,
    stark_calibration,
)
from .heterodyne import (
    BeatNoteConfig,
    CircularMean,
    ConfigError,
    LeakageWarning,
    PhaseHistogram,
    accumulate_histogram,
    circular_mean,
    synthesize,
    write_trace_csv,
)
from .oracle import (
    CutoffConvergenceError,
    DensityMatrixError,
    GSquaredUndefinedError,
    JCParams,
    LinearLimitReport,
    OracleResult,
    lindblad_steady_state,
    linear_limit_check,
    steady_density_matrix,
)
from .presets import NETWORK_PRESETS, STARK_CALIBRATION_POINTS, emitter_resonator, five_node_demo

__all__ = [name for name in dir() if not name.startswith("_")]
