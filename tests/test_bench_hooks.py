"""The traced benchmark patches names in the package; they must all exist.

``perfbench/spans.py`` wraps callees that ``lpic.cli`` and ``lpic.simulate``
look up at call time.  A refactor that renames or removes one of them would
leave the traced benchmark timing nothing, so the names are checked here.
The file is loaded by path and only read.  The benchmark's four workloads are
checked here too: their traced call counts, and their seed-1 records against
``perfbench/reference/``, which the benchmark's correctness gate compares.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import lpic.cli
import lpic.simulate
from lpic.config import parse_config
from lpic.simulate import render_ber_csv, run_ber_experiment

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = {"cli": lpic.cli, "simulate": lpic.simulate}


def _patches():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._PATCHES


def test_every_patched_name_exists():
    patches = _patches()
    assert patches
    for module, name, _span, _attr in patches:
        assert callable(getattr(MODULES[module], name, None)), f"{module}.{name}"


# perfbench/run.py's workloads, copied: importing run.py sets BLAS variables
FAMILY = (
    "mf, conventional:2..5, proposed:2..5, mmse_converging:4, modified_mmse:4, "
    "weighted_proposed:4, decorrelator, mmse"
)
COMMON = {"K": 20, "P": 64, "near_far": "tenfold"}
WORKLOADS = {
    "single_family": {"snr_db": 15, "detectors": FAMILY, "receiver": "single",
                      "trials": 65536},
    "type1_m4": {"M": 4, "snr_db": 14, "detectors": "conventional:4",
                 "receiver": "type1", "trials": 32768},
    "type2_m4": {"M": 4, "snr_db": 14, "detectors": "conventional:4",
                 "receiver": "type2", "trials": 16384},
    "per_trial_family": {"snr_db": 15, "detectors": FAMILY, "receiver": "single",
                         "sequence_mode": "per_trial", "trials": 128},
}


def _config(workload, trials=None):
    entries = {**COMMON, "sequence_mode": "fixed", **WORKLOADS[workload], "seed": 1}
    if trials is not None:
        entries["trials"] = trials
    return parse_config("".join(f"{k} = {v}\n" for k, v in entries.items()))


def _traced_counts(monkeypatch, cfg):
    """(schedules, builds, spreading draws) calls of one run, as the spans count them."""
    counts = Counter()
    for name in ("compute_weight_schedule", "build_filter", "generate_spreading_set"):
        original = getattr(lpic.simulate, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(lpic.simulate, name, counted)
    run_ber_experiment(cfg)
    return counts["compute_weight_schedule"], counts["build_filter"], counts["generate_spreading_set"]


# (trials, (schedules, builds, spreading draws)): one schedule per stack of
# draws and one build per detector and subcarrier, so a fixed run builds on
# its one draw and a 3-trial per_trial run on its one chunk.  type2
# conventional builds nothing, and anything the type2 harness adds on the way
# (such as the nonconv bound's eigendecomposition) must not pass through
# these names.  The first three are the smoke run's pins.
TRACED_COUNTS = {
    "single_family": (300, (1, 14, 1)),
    "type1_m4": (200, (0, 4, 4)),
    "type2_m4": (200, (0, 0, 4)),
    "per_trial_family": (3, (1, 14, 3)),
}


@pytest.mark.parametrize("workload", list(TRACED_COUNTS))
def test_traced_counts(monkeypatch, workload):
    trials, expected = TRACED_COUNTS[workload]
    assert _traced_counts(monkeypatch, _config(workload, trials)) == expected


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_records_match_the_benchmark_reference(workload):
    want = (PERFBENCH / "reference" / f"{workload}.csv").read_text()
    assert render_ber_csv(run_ber_experiment(_config(workload))) == want
