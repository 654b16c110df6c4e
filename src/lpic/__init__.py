"""Linear parallel interference cancellation for synchronous DS-CDMA.

Matrix-filter multistage detectors (conventional and zero-diagonal series,
eigenvalue-weighted MMSE-converging variants, per-user weighted stages; all
of them, conventional included, sum the single stage recursion
filters.cancellation_series, and build_filter can build only the rows a
caller counts), closed-form output SINR and optimal stage weights, and a
deterministic Monte Carlo BER harness with single-carrier and multicarrier
Type I / II receivers.
"""

from .config import ConfigError, DetectorSpec, ExperimentConfig, load_config, parse_config
from .filters import FILTER_KINDS, SingularMatrixError, build_filter
from .model import (
    NotPositiveSemidefiniteError,
    convergence_check,
    correlation_matrix,
    equicorrelated_matrix,
    generate_spreading_set,
    noise_transform,
)
from .simulate import (
    BerRecord,
    SinrPoint,
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
)

__version__ = "0.1.0"
