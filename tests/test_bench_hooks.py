"""The traced benchmark patches names in the package; they must all exist.

``perfbench/spans.py`` wraps callees that ``lpic.cli`` and ``lpic.simulate``
look up at call time.  A refactor that renames or removes one of them would
leave the traced benchmark timing nothing, so the names are checked here.
The file is loaded by path and only read.  The counts the smoke run pins for
type2_m4 are checked here too, on the same config, and so are the counts of
a short per_trial_family run on the batched per_trial path.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import lpic.cli
import lpic.simulate
from lpic.config import parse_config

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
MODULES = {"cli": lpic.cli, "simulate": lpic.simulate}


def _patches():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._PATCHES


def test_every_patched_name_exists():
    patches = _patches()
    assert patches
    for module, name, _span, _attr in patches:
        assert callable(getattr(MODULES[module], name, None)), f"{module}.{name}"


FAMILY = (
    "mf, conventional:2..5, proposed:2..5, mmse_converging:4, modified_mmse:4, "
    "weighted_proposed:4, decorrelator, mmse"
)


def _traced_counts(monkeypatch, text):
    """(schedules, builds, spreading draws) calls of one run, as the spans count them."""
    counts = Counter()
    for name in ("compute_weight_schedule", "build_filter", "generate_spreading_set"):
        original = getattr(lpic.simulate, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(lpic.simulate, name, counted)
    lpic.simulate.run_ber_experiment(parse_config(text))
    return counts


def test_type2_m4_builds_nothing_and_draws_m_sequences(monkeypatch):
    # perfbench/test_smoke.py pins the traced (schedules, builds, spreading
    # draws) of its 200-trial type2_m4 run at (0, 0, 4).  Anything the type2
    # harness adds on the way, such as the nonconv bound's eigendecomposition,
    # must not pass through these names, or only that smoke run would notice.
    counts = _traced_counts(
        monkeypatch,
        "K = 20\nP = 64\nM = 4\nnear_far = tenfold\nsnr_db = 14\n"
        "detectors = conventional:4\nreceiver = type2\nsequence_mode = fixed\n"
        "trials = 200\nseed = 1\n",
    )
    assert counts == {"generate_spreading_set": 4}


def test_per_trial_family_builds_once_per_chunk(monkeypatch):
    # the per_trial_family workload on 3 trials: one spreading draw per
    # trial, and one schedule and one build per detector for the chunk
    counts = _traced_counts(
        monkeypatch,
        "K = 20\nP = 64\nnear_far = tenfold\nsnr_db = 15\nreceiver = single\n"
        f"detectors = {FAMILY}\nsequence_mode = per_trial\ntrials = 3\nseed = 1\n",
    )
    assert counts == {
        "compute_weight_schedule": 1, "build_filter": 14, "generate_spreading_set": 3,
    }
