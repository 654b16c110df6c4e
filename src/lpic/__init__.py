"""Linear parallel interference cancellation for synchronous DS-CDMA.

Matrix-filter multistage detectors (conventional and zero-diagonal series,
eigenvalue-weighted MMSE-converging variants, per-user weighted stages; all
but the conventional one sum the single stage recursion
filters.cancellation_series), closed-form output SINR and optimal stage
weights, and a deterministic Monte Carlo BER harness with single-carrier
and multicarrier Type I / II receivers.
"""

from .config import ConfigError, DetectorSpec, ExperimentConfig, load_config, parse_config
from .filters import (
    FILTER_KINDS,
    SingularMatrixError,
    WeightSchedule,
    build_filter,
    limit_scaling_matrix,
    zero_diagonal,
)
from .model import (
    NotPositiveSemidefiniteError,
    SpreadingSet,
    convergence_check,
    correlation_matrix,
    equicorrelated_matrix,
    generate_spreading_set,
    noise_transform,
)
from .simulate import (
    BerRecord,
    SinrPoint,
    emit_csv,
    parse_records,
    render_ber_csv,
    render_sinr_csv,
    run_ber_experiment,
    run_sinr_experiment,
    wilson_interval,
)
from .sinr import (
    EquicorrSirReport,
    SinrBreakdown,
    compute_weight_schedule,
    equicorr_sir_report,
    q_matrix,
    sinr_breakdown,
    sinr_sweep,
)

__version__ = "0.1.0"
