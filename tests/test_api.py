"""The package's public surface, pinned so that an added or removed name shows in review."""

import inspect

import lpic

PUBLIC = {
    # config
    "ConfigError", "DetectorSpec", "ExperimentConfig", "load_config", "parse_config",
    # filters
    "FILTER_KINDS", "SingularMatrixError", "build_filter",
    # model
    "NotPositiveSemidefiniteError", "convergence_check", "correlation_matrix",
    "equicorrelated_matrix", "generate_spreading_set", "noise_transform",
    # simulate
    "BerRecord", "SinrPoint", "parse_records", "render_ber_csv", "render_sinr_csv",
    "run_ber_experiment", "run_sinr_experiment", "wilson_interval",
    # sinr
    "EquicorrSirReport", "SinrBreakdown", "compute_weight_schedule", "equicorr_sir_report",
    "q_matrix", "sinr_breakdown",
}


def test_public_names_are_pinned():
    names = {
        name for name, value in vars(lpic).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert names == PUBLIC
    assert len(PUBLIC) == 28
