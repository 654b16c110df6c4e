"""The traced benchmark patches names in the package; they must all exist.

``perfbench/spans.py`` wraps callees that ``lpic.cli`` and ``lpic.simulate``
look up at call time.  A refactor that renames or removes one of them would
leave the traced benchmark timing nothing, so the names are checked here.
The file is loaded by path and only read.  The benchmark's four workloads,
as ``perfbench/run.py`` defines them, are checked here too: their traced call
counts, and their seed-1 records against ``perfbench/reference/``, which the
benchmark's correctness gate compares.
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import lpic.cli
import lpic.model
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


def _benchmark_workloads():
    """`COMMON` and `WORKLOADS` of perfbench/run.py.

    Only the `FAMILY`, `COMMON` and `WORKLOADS` assignments are executed:
    running the whole file would set BLAS variables in this process.
    """
    wanted = {"FAMILY", "COMMON", "WORKLOADS"}
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    body = [
        node for node in tree.body
        if isinstance(node, ast.Assign) and {getattr(t, "id", None) for t in node.targets} & wanted
    ]
    namespace = {}
    exec(compile(ast.Module(body=body, type_ignores=[]), "run.py", "exec"), namespace)
    assert wanted <= namespace.keys()
    return namespace["COMMON"], namespace["WORKLOADS"]


COMMON, WORKLOADS = _benchmark_workloads()


def _config(workload, trials=None):
    entries = {**COMMON, "sequence_mode": "fixed", **WORKLOADS[workload], "seed": 1}
    if trials is not None:
        entries["trials"] = trials
    return parse_config("".join(f"{k} = {v}\n" for k, v in entries.items()))


def _traced_counts(monkeypatch, cfg):
    """(schedules, builds, spreading draws, raw sign reads) of one run.

    The first three are calls as the spans count them; the last counts
    model._SignDraws.read calls, one per random_raw read of +/-1 draws.
    """
    counts = Counter()

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    names = ("compute_weight_schedule", "build_filter", "generate_spreading_set")
    for name in names:
        counting(lpic.simulate, name)
    counting(lpic.model._SignDraws, "read")
    run_ber_experiment(cfg)
    return tuple(counts[name] for name in names + ("read",))


# (trials, (schedules, builds, spreading draws, raw sign reads)): one schedule
# per stack of draws and one build per detector and subcarrier, so a fixed run
# builds on its one draw and a 3-trial per_trial run on its one chunk.  A
# fixed run draws its sequences once and reads each block's bits in one raw
# read; a per_trial trial reads its sequences and bits in one, so
# generate_spreading_set never runs there.  type2 conventional builds nothing,
# and anything the type2 harness adds on the way (such as the nonconv bound's
# eigendecomposition) must not pass through these names.  The first three
# counts of the first three workloads are the smoke run's pins.
TRACED_COUNTS = {
    "single_family": (300, (1, 14, 1, 1)),
    "type1_m4": (200, (0, 4, 4, 1)),
    "type2_m4": (200, (0, 0, 4, 1)),
    "per_trial_family": (3, (1, 14, 0, 3)),
}


@pytest.mark.parametrize("workload", list(TRACED_COUNTS))
def test_traced_counts(monkeypatch, workload):
    trials, expected = TRACED_COUNTS[workload]
    assert _traced_counts(monkeypatch, _config(workload, trials)) == expected


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_records_match_the_benchmark_reference(workload):
    want = (PERFBENCH / "reference" / f"{workload}.csv").read_text()
    assert render_ber_csv(run_ber_experiment(_config(workload))) == want
