"""Harness tests: deterministic draws, CSV, internal paths, and the reference sweep.

TestReferenceSweep runs every SWEEP config through run_ber_experiment and
through tests/reference.py, which replays the documented seed tree (root
seed, one child for the spreading draw, one child per trial block) one trial
at a time, and compares the records field by field.  The per-path tests spy
on the harness and take their per-trial statistics from the same reference.
"""

import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from collections import Counter
from dataclasses import astuple, replace
from functools import cache
from pathlib import Path

import numpy as np
import pytest

import reference
from lpic import cli, model, simulate
from lpic.config import ConfigError, DetectorSpec, parse_config
from lpic.model import NotPositiveSemidefiniteError, correlation_matrix, generate_spreading_set
from lpic.simulate import (
    BER_CSV_HEADER,
    BerRecord,
    default_threads,
    parse_records,
    render_ber_csv,
    run_ber_experiment,
    run_sinr_experiment,
    wilson_interval,
)

from oracles import random_correlation, wilson_by_bisection
from reference import fading, hermitian, nonconvergent, scaled

README = Path(__file__).resolve().parent.parent / "README.md"


class TestWilsonInterval:
    def test_matches_score_equation_bisection(self):
        for trials in (1, 10, 1000):
            for errors in (0, 1, 7, trials):
                if errors > trials:
                    continue
                got = wilson_interval(errors, trials)
                want = wilson_by_bisection(errors, trials, 1.959963984540054)
                assert got[0] == pytest.approx(want[0], abs=1e-10)
                assert got[1] == pytest.approx(want[1], abs=1e-10)

    def test_contains_point_estimate(self):
        for errors, trials in ((0, 50), (3, 50), (50, 50)):
            lo, hi = wilson_interval(errors, trials)
            assert lo <= errors / trials <= hi
            assert 0.0 <= lo <= hi <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 3)
        with pytest.raises(ValueError):
            wilson_interval(-1, 3)


class TestCsv:
    def _records(self):
        return [
            BerRecord("conventional", 3, "single", 15.0, 100000, 1234,
                      0.01234, 0.011665, 0.013053, 0),
            BerRecord("decorrelator[all-users]", 1, "type2", 14.0, 400000, 77,
                      1.925e-4, 1.5e-4, 2.4e-4, 12),
            BerRecord("decorrelator", 1, "single", 8.0, 0, 0,
                      float("nan"), float("nan"), float("nan"), 0),
        ]

    def test_roundtrip_is_exact(self):
        recs = self._records()
        back = parse_records(render_ber_csv(recs))
        assert len(back) == len(recs)
        for a, b in zip(recs, back):
            assert (a.detector, a.stage, a.receiver, a.trials, a.bit_errors, a.nonconv) == (
                b.detector, b.stage, b.receiver, b.trials, b.bit_errors, b.nonconv
            )
            for field in ("snr_db", "ber", "ci_low", "ci_high"):
                x, y = getattr(a, field), getattr(b, field)
                assert (math.isnan(x) and math.isnan(y)) or x == y

    def test_header_and_shape_enforced(self):
        with pytest.raises(ValueError):
            parse_records("bogus\n1,2,3\n")
        with pytest.raises(ValueError):
            parse_records(BER_CSV_HEADER + "\nonly,three,fields\n")

    def test_emit_writes_rendered_text(self, tmp_path):
        # `lpic ber --output FILE` writes the rendered records, LF line ends on every OS
        text = "K = 4\nP = 16\nsnr_db = 6\ntrials = 300\nseed = 2\ndetectors = mf, proposed:2\n"
        (tmp_path / "run.cfg").write_text(text)
        path = tmp_path / "out.csv"
        assert cli.main(["ber", str(tmp_path / "run.cfg"), "--output", str(path)]) == 0
        want = render_ber_csv(run_ber_experiment(parse_config(text)))
        assert path.read_bytes() == want.encode("utf-8")

    def test_readme_column_list_is_the_header(self):
        """README's `ber` paragraph lists the CSV columns in header order."""
        section = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("\n## ", 1)[0]
        (listed,) = re.findall(r"one row per detector: `([^`]*)`", section)
        assert re.sub(r"\s+", "", listed) == BER_CSV_HEADER


class TestDefaultThreads:
    def test_env_controls_worker_count(self, monkeypatch):
        monkeypatch.delenv("LPIC_THREADS", raising=False)
        assert default_threads() == 1
        monkeypatch.setenv("LPIC_THREADS", "4")
        assert default_threads() == 4
        monkeypatch.setenv("LPIC_THREADS", "squid")
        with pytest.raises(ConfigError):
            default_threads()
        monkeypatch.setenv("LPIC_THREADS", "0")
        with pytest.raises(ConfigError):
            default_threads()


def _run(text, threads=1):
    return run_ber_experiment(parse_config(text), threads=threads)


class TestDeterminism:
    CFG = (
        "K = 6\nP = 32\nsnr_db = 10\ntrials = 20000\nseed = 7\n"
        "detectors = mf, conventional:3, proposed:3, decorrelator, mmse\n"
    )

    def test_same_config_same_records(self):
        assert _run(self.CFG) == _run(self.CFG)

    def test_worker_count_does_not_change_records(self):
        assert _run(self.CFG, threads=1) == _run(self.CFG, threads=4)

    @pytest.mark.parametrize(
        "text",
        [
            "K = 8\nP = 24\nsnr_db = 6\ntrials = 9000\ndetectors = mf, conventional:2..4, "
            "proposed:3, mmse_converging:3, modified_mmse:3, weighted_proposed:3, "
            "decorrelator, mmse\n",
            "K = 8\nP = 24\nM = 3\nreceiver = type1\ncount_all_users = true\nsnr_db = 6\n"
            "trials = 9000\ndetectors = mf, conventional:3, weighted_proposed:3, mmse\n",
            "K = 20\nP = 64\nM = 4\nreceiver = type2\nsnr_db = 10\ntrials = 9000\n"
            "detectors = mf, conventional:3, proposed:2..3, decorrelator, mmse\n",
            "K = 6\nP = 8\nM = 2\nreceiver = type2\nsnr_db = 8\ntrials = 70\n"
            "sequence_mode = per_trial\ndetectors = mf, conventional:2, proposed:2, "
            "decorrelator, mmse\n",
        ],
        ids=["single_family", "type1_all_users", "type2", "type2_per_trial"],
    )
    @pytest.mark.parametrize("chunk", [7, 8192])
    def test_records_do_not_depend_on_the_detect_chunk_size(self, monkeypatch, text, chunk):
        # a fixed-mode block takes _COUNT_TRIALS slices when its matrix forms
        # are folded (single_family), else _CHUNK_TRIALS slices, in which y is
        # formed (type1_all_users, and every type2 block); a per_trial stack is
        # one slice (type2_per_trial); in type2 the low-rank bound may be
        # dropped at another chunk
        text += "seed = 3\n"
        records = render_ber_csv(_run(text))
        monkeypatch.setattr(simulate, "_CHUNK_TRIALS", chunk)
        monkeypatch.setattr(simulate, "_COUNT_TRIALS", chunk)
        assert render_ber_csv(_run(text)) == records

    def test_per_trial_mode_is_deterministic(self):
        cfg = (
            "K = 3\nP = 8\nsnr_db = 8\ntrials = 150\nseed = 2\n"
            "sequence_mode = per_trial\ndetectors = mf, conventional:2\n"
        )
        a, b = _run(cfg), _run(cfg)
        assert a == b
        assert all(r.trials == 150 for r in a)
        assert all(r.bit_errors > 0 for r in a)  # 150 trials at 8 dB always err


# One full type1 block; a fixed type2 draw at P = 48 whose low-rank bound
# leaves trials to the dense test at seed 1; a per_trial type2 run counting
# every user, with nonconvergent draws and singular R; a fixed type1 draw
# at P = 1, whose R are singular.
_HOST_CONFIGS = [
    "K = 20\nP = 64\nM = 4\nnear_far = tenfold\nsnr_db = 14\nreceiver = type1\n"
    "trials = 8192\nseed = 1\ndetectors = mf, conventional:2..4, proposed:3, mmse\n",
    "K = 20\nP = 48\nM = 4\nnear_far = tenfold\nsnr_db = 10\nreceiver = type2\n"
    "trials = 1024\nseed = 1\ndetectors = mf, conventional:3, proposed:2, decorrelator, mmse\n",
    "K = 6\nP = 8\nM = 2\nreceiver = type2\nsnr_db = 8\ntrials = 300\nseed = 4\n"
    "sequence_mode = per_trial\ncount_all_users = true\n"
    "detectors = mf, conventional:2, proposed:2, decorrelator, mmse\n",
    "K = 3\nP = 1\nM = 2\nreceiver = type1\nsnr_db = 6\ntrials = 400\nseed = 2\n"
    "detectors = mf, conventional:2, proposed:2, mmse\n",
]
_HOST_SCRIPT = (
    "import json, sys\n"
    "from lpic.config import parse_config\n"
    "from lpic.simulate import render_ber_csv, run_ber_experiment\n"
    "for text in json.load(sys.stdin):\n"
    "    sys.stdout.write(render_ber_csv(run_ber_experiment(parse_config(text), threads=1)))\n"
)
_HOST_SETTINGS = ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")
_WIDE_FEATURES = ("X86_V4", "AVX512_ICL", "AVX512_SPR", "X86_V3")
# OpenBLAS kernels to force, each with the CPU features its code needs
_CORETYPES = (("Haswell", ("AVX2", "FMA3")), ("Sandybridge", ("AVX",)))
_CORENAME_SCRIPT = (
    "import ctypes, glob, os, numpy as np\n"
    "libs = os.path.join(os.path.dirname(np.__file__), os.pardir, 'numpy.libs')\n"
    "for path in glob.glob(os.path.join(libs, 'libscipy_openblas*.so*')):\n"
    "    try:\n"
    "        corename = ctypes.CDLL(path).scipy_openblas_get_corename64_\n"
    "    except (OSError, AttributeError):\n"
    "        continue\n"
    "    corename.argtypes, corename.restype = [], ctypes.c_char_p\n"
    "    print(corename().decode())\n"
    "    break\n"
)


def _host_env(**env) -> dict:
    """The environment of a fresh interpreter: env set on the defaults, src importable."""
    full = {k: v for k, v in os.environ.items() if k not in _HOST_SETTINGS}
    src = str(Path(simulate.__file__).resolve().parent.parent)
    full["PYTHONPATH"] = os.pathsep.join(filter(None, [src, full.get("PYTHONPATH")]))
    return {**full, **env}


def _host_records(**env) -> str:
    """render_ber_csv of _HOST_CONFIGS in a fresh interpreter with env set on the defaults."""
    done = subprocess.run(
        [sys.executable, "-c", _HOST_SCRIPT], input=json.dumps(_HOST_CONFIGS),
        env=_host_env(**env), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _require_openblas():
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    if "openblas" not in str(blas.get("name", "")).lower():
        pytest.skip("NumPy does not use OpenBLAS")


def _blas_threads(threads):
    _require_openblas()
    if (os.cpu_count() or 1) < 2:
        pytest.skip("one CPU: OpenBLAS runs one thread whatever is asked")
    return {"OPENBLAS_NUM_THREADS": str(threads)}


def _umath():
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # NumPy < 2
        from numpy.core import _multiarray_umath as umath
    return umath


def _corename(**env) -> str:
    """The kernel name NumPy's OpenBLAS reports in a fresh interpreter ("" if unknown)."""
    done = subprocess.run(
        [sys.executable, "-c", _CORENAME_SCRIPT], env=_host_env(**env),
        capture_output=True, text=True, timeout=60,
    )
    return done.stdout.strip() if done.returncode == 0 else ""


def _forced_coretype():
    """OPENBLAS_CORETYPE set to a kernel other than the host's, confirmed in the child."""
    _require_openblas()
    default = _corename()
    if not default:
        pytest.skip("NumPy's OpenBLAS does not report its kernel")
    features = _umath().__cpu_features__
    for name, needs in _CORETYPES:
        if name.lower() != default.lower() and all(features.get(f) for f in needs):
            forced = _corename(OPENBLAS_CORETYPE=name)
            if forced.lower() != name.lower():
                pytest.skip(f"OPENBLAS_CORETYPE={name} read back as {forced!r}")
            return {"OPENBLAS_CORETYPE": name}
    pytest.skip(f"no kernel other than {default} that this CPU can run")


def _narrow_simd_setting():
    umath = _umath()
    wide = [f for f in _WIDE_FEATURES if f in umath.__cpu_dispatch__ and umath.__cpu_features__.get(f)]
    if not wide:
        pytest.skip(f"the host runs none of NumPy's {'/'.join(_WIDE_FEATURES)} kernels")
    return {"NPY_DISABLE_CPU_FEATURES": " ".join(wide)}


class TestHostIndependence:
    """Records do not depend on the BLAS thread count or kernel, or NumPy's SIMD kernels."""

    @pytest.fixture(scope="class")
    def default_records(self):
        return _host_records()

    # OpenBLAS defaults to one thread per core, so on most hosts only one
    # of the two thread counts differs from the default run.  The per_trial
    # and K = 3, P = 1 configs draw singular R: model.noise_transform shapes
    # those with the symmetric root, not with a Cholesky factor that another
    # OpenBLAS kernel's rounding may or may not produce, nor with an
    # eigenvector basis LAPACK chooses, so they keep their records under a
    # forced kernel too.
    @pytest.mark.parametrize(
        "setting",
        [
            pytest.param(lambda: _blas_threads(1), id="blas1"),
            pytest.param(lambda: _blas_threads(2), id="blas2"),
            pytest.param(_forced_coretype, id="blas_coretype"),
            pytest.param(_narrow_simd_setting, id="narrow_simd"),
        ],
    )
    def test_records_match_the_default_run(self, default_records, setting):
        assert _host_records(**setting()) == default_records


class TestWorkerPool:
    def test_pool_shuts_down_when_a_block_raises(self, monkeypatch):
        def fail(ctx, seed_seq, size):
            raise RuntimeError("block failed")

        monkeypatch.setattr(simulate, "_block_fixed", fail)
        cfg = parse_config("K = 2\nP = 8\nsnr_db = 5\ntrials = 20000\ndetectors = mf\n")
        with pytest.raises(RuntimeError, match="block failed"):
            run_ber_experiment(cfg, threads=2)
        workers = [t for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor")]
        assert workers == []

    def test_single_block_runs_without_a_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("pool started for one block")

        text = "K = 3\nP = 8\nsnr_db = 5\ntrials = 500\ndetectors = mf, conventional:2\n"
        want = _run(text)
        monkeypatch.setattr(simulate, "ThreadPoolExecutor", no_pool)
        assert _run(text, threads=2) == want

    def test_concurrent_runs_share_one_blas_pin(self, monkeypatch):
        # overlapping multi-worker runs: BLAS stays at one thread while any
        # of them runs, and the count from before the first is restored after
        # the last; a lost update would leave it at one or restore it early
        state = {"threads": 4, "wrong": 0}
        monkeypatch.setattr(simulate, "_openblas_threads", lambda: (
            lambda: state["threads"], lambda n: state.update(threads=n)
        ))

        def run():
            for _ in range(200):
                with simulate._one_blas_thread():
                    state["wrong"] += state["threads"] != 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=run) for _ in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert state == {"threads": 4, "wrong": 0}

    def test_workers_run_blas_on_one_thread(self):
        # in a fresh interpreter, free of conftest's pin: BLAS starts at two
        # threads, runs on one while two workers run, and is restored after;
        # a one-worker run leaves it alone
        _require_openblas()
        script = (
            "import json\n"
            "from lpic import simulate\n"
            "from lpic.config import parse_config\n"
            "calls = simulate._openblas_threads()\n"
            "if calls is None:\n"
            "    raise SystemExit(3)\n"
            "get, set_ = calls\n"
            "set_(2)\n"
            "seen = []\n"
            "block = simulate._block_fixed\n"
            "def spy(*args):\n"
            "    seen.append(get())\n"
            "    return block(*args)\n"
            "simulate._block_fixed = spy\n"
            "cfg = parse_config('K = 6\\nP = 16\\nM = 2\\nreceiver = type2\\nsnr_db = 8\\n'\n"
            "                   'trials = 9000\\ndetectors = conventional:2, proposed:2\\n')\n"
            "out = {}\n"
            "for threads in (2, 1):\n"
            "    seen.clear()\n"
            "    simulate.run_ber_experiment(cfg, threads=threads)\n"
            "    out[threads] = [list(seen), get()]\n"
            "print(json.dumps(out))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], env=_host_env(),
            capture_output=True, text=True, timeout=120,
        )
        if done.returncode == 3:
            pytest.skip("NumPy's bundled OpenBLAS is not found")
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == {"2": [[1, 1], 2], "1": [[2, 2], 2]}


class TestSharedStreams:
    def test_decorrelator_rows_identical_across_near_far(self):
        # amplitudes scale after the draws and the decorrelator removes all
        # interference, so its error count cannot depend on the profile
        base = (
            "K = 8\nP = 32\nsnr_db = 12\ntrials = 50000\nseed = 5\n"
            "detectors = decorrelator, mf\nnear_far = %s\n"
        )
        plain = {r.detector: r for r in _run(base % "none")}
        loud = {r.detector: r for r in _run(base % "tenfold")}
        assert plain["decorrelator"].bit_errors == loud["decorrelator"].bit_errors
        assert plain["mf"].bit_errors < loud["mf"].bit_errors  # mf is not immune


class TestAllUsersCounting:
    def test_labels_and_totals(self):
        base = (
            "K = 3\nP = 16\nsnr_db = 9\ntrials = 9000\nseed = 4\n"
            "detectors = mf, conventional:2\n"
        )
        single = {(r.detector, r.stage): r for r in _run(base)}
        every = {(r.detector, r.stage): r for r in _run(base + "count_all_users = true\n")}
        for (label, stage), rec in every.items():
            assert label.endswith("[all-users]")
            assert rec.trials == 3 * 9000
            assert rec.ber == rec.bit_errors / rec.trials
            bare = label.removesuffix("[all-users]")
            # same draws, superset of counted bits
            assert rec.bit_errors >= single[(bare, stage)].bit_errors


class TestCombinedOnlyCounting:
    def test_no_filter_rows_are_applied_without_a_matrix_form(self, monkeypatch):
        # type2 conventional alone (the type2_m4 workload) has no matrix-form
        # detector: every _users product receives or cancels, none counts zero rows
        shapes = []
        users = simulate._users

        def record(mats, v, out=None):
            shapes.append(mats.shape)
            return users(mats, v, out)

        monkeypatch.setattr(simulate, "_users", record)
        text = (
            "K = 20\nP = 64\nM = 4\nnear_far = tenfold\nsnr_db = 14\nreceiver = type2\n"
            "trials = 600\nseed = 1\ndetectors = conventional:4\n"
        )
        (record_,) = _run(text)
        assert record_.trials == 600
        assert shapes and all(shape[2] > 0 for shape in shapes)


# The configs TestReferenceSweep runs through both run_ber_experiment and
# tests/reference.py, written "key = value; ...".  The grid crosses receiver,
# sequence_mode and M, each with a detector list holding every kind its
# receiver supports; then come the configs of the per-path checks below.
_FAMILY = (
    "mf, conventional:2..3, proposed:2..3, mmse_converging:3, modified_mmse:3, "
    "weighted_proposed:2..3, decorrelator, mmse"
)
_TYPE2 = "mf, conventional:1..5, proposed:2..4, decorrelator, mmse"
_GRID = {  # receiver, sequence_mode, M, the rest
    "single_fixed_convergent": ("single", "fixed", 1, "K = 8; P = 16; require_convergent = true"),
    "single_per_trial_p_below_k": ("single", "per_trial", 1, "K = 6; P = 4"),
    "type1_fixed_M1_tenfold": ("type1", "fixed", 1, "K = 6; P = 16; near_far = tenfold"),
    "type1_fixed_M2_p_below_k": ("type1", "fixed", 2, "K = 6; P = 4"),
    "type1_fixed_M3_all_users": ("type1", "fixed", 3, "K = 6; P = 16; count_all_users = true"),
    "type1_fixed_M4_tenfold_identical": (
        "type1", "fixed", 4, "K = 8; P = 32; near_far = tenfold; subcarrier_sequences = identical"
    ),
    "type1_per_trial_M1": ("type1", "per_trial", 1, "K = 5; P = 8"),
    "type1_per_trial_M2_all_users": ("type1", "per_trial", 2, "K = 6; P = 16; count_all_users = true"),
    "type1_per_trial_M3_tenfold": ("type1", "per_trial", 3, "K = 6; P = 12; near_far = tenfold"),
    "type1_per_trial_M4_identical": (
        "type1", "per_trial", 4, "K = 6; P = 16; subcarrier_sequences = identical"
    ),
    "type2_fixed_M1_p_below_k": ("type2", "fixed", 1, "K = 6; P = 4"),
    "type2_fixed_M2_all_users": ("type2", "fixed", 2, "K = 6; P = 12; count_all_users = true"),
    "type2_fixed_M3_convergent": ("type2", "fixed", 3, "K = 6; P = 16; require_convergent = true"),
    "type2_fixed_M4_tenfold": ("type2", "fixed", 4, "K = 8; P = 16; near_far = tenfold"),
    "type2_per_trial_M1": ("type2", "per_trial", 1, "K = 4; P = 8"),
    "type2_per_trial_M2_p_below_k": ("type2", "per_trial", 2, "K = 6; P = 4"),
    "type2_per_trial_M3_all_users": ("type2", "per_trial", 3, "K = 5; P = 8; count_all_users = true"),
    "type2_per_trial_M4_tenfold": ("type2", "per_trial", 4, "K = 6; P = 16; near_far = tenfold"),
}
_COMBINED = f"receiver = type2; snr_db = 4; seed = 6; detectors = {_TYPE2}; "
_MATRIX_FORMS = "receiver = type2; snr_db = 4; seed = 6; detectors = mf, mmse; "
SWEEP = {
    name: f"receiver = {rx}; sequence_mode = {mode}; M = {m}; snr_db = 6; "
    f"trials = {100 if mode == 'per_trial' else 300}; "
    f"detectors = {_TYPE2 if rx == 'type2' else _FAMILY}; {rest}"
    for name, (rx, mode, m, rest) in _GRID.items()
} | {
    # two blocks each
    "single_two_blocks": "K = 4; P = 16; snr_db = 9; trials = 9000; seed = 11; "
    "detectors = mf, conventional:3, decorrelator, mmse",
    "type1_all_users_two_blocks": "K = 4; P = 16; M = 2; snr_db = 9; trials = 9000; seed = 17; "
    "receiver = type1; count_all_users = true; "
    "detectors = mf, conventional:3, proposed:3, weighted_proposed:3, mmse",
    "type2_M2": "K = 4; P = 16; M = 2; snr_db = 10; trials = 400; seed = 13; receiver = type2; "
    "detectors = mf, conventional:3, proposed:3, decorrelator, mmse",
    "type1_per_trial_tenfold": "K = 4; P = 16; M = 2; snr_db = 6; trials = 300; seed = 5; "
    "receiver = type1; near_far = tenfold; sequence_mode = per_trial; "
    "detectors = mf, conventional:3, weighted_proposed:3, mmse_converging:2, mmse",
    # TestFailureIsolation: per_trial draws, some with a singular R
    "per_trial_few_singular": "K = 6; P = 16; snr_db = 8; trials = 3000; "
    "sequence_mode = per_trial; detectors = decorrelator, mf, weighted_proposed:3",
    "per_trial_many_singular": "K = 6; P = 8; snr_db = 8; trials = 1000; "
    "sequence_mode = per_trial; detectors = decorrelator, mf, weighted_proposed:3",
    # TestCountPaths
    "paths_single": "K = 8; P = 16; near_far = tenfold; trials = 1500; snr_db = 6; seed = 4; "
    "detectors = mf, conventional:3, proposed:2, weighted_proposed:3, decorrelator, mmse",
    "paths_single_long_list": "K = 3; P = 8; trials = 1500; snr_db = 6; seed = 4; "
    "detectors = mf, conventional:2, proposed:2, decorrelator, mmse",
    "paths_type1_all_users": "K = 4; P = 16; M = 2; receiver = type1; count_all_users = true; "
    "trials = 600; snr_db = 6; seed = 4; detectors = mf, conventional:3, weighted_proposed:3, mmse",
    "paths_type2": "K = 6; P = 16; M = 2; receiver = type2; trials = 600; snr_db = 6; seed = 4; "
    "detectors = mf, conventional:2, proposed:2, mmse",
    "paths_type2_all_users": "K = 4; P = 16; M = 2; receiver = type2; count_all_users = true; "
    "trials = 600; snr_db = 6; seed = 4; detectors = mf, conventional:2, mmse",
    "paths_type2_matrix_forms": "K = 6; P = 16; M = 2; receiver = type2; trials = 600; "
    "snr_db = 6; seed = 4; detectors = mf, mmse",
    "paths_per_trial": "K = 6; P = 16; M = 2; receiver = type1; near_far = tenfold; "
    "sequence_mode = per_trial; trials = 70; snr_db = 6; seed = 4; "
    "detectors = mf, conventional:2, weighted_proposed:3, mmse",
    # TestType2CombinedDomain
    "combined_M1": _COMBINED + "K = 4; P = 8; M = 1; trials = 300",
    "combined_M2_all_users": _COMBINED + "K = 6; P = 8; M = 2; trials = 300; count_all_users = true",
    "combined_M3_identical": _COMBINED + "K = 6; P = 12; M = 3; trials = 300; "
    "subcarrier_sequences = identical",
    # M r < K: the low-rank bound, with open trials, over two full chunks and a short one
    "combined_M4_bound": _COMBINED + "K = 14; P = 32; M = 4; trials = 600; near_far = tenfold",
    "combined_M3_per_trial": _COMBINED + "K = 5; P = 8; M = 3; trials = 70; sequence_mode = per_trial",
    "combined_M4_per_trial_all_users": _COMBINED + "K = 6; P = 8; M = 4; trials = 40; "
    "sequence_mode = per_trial; count_all_users = true",
    "combined_M2_matrix_forms": _MATRIX_FORMS + "K = 6; P = 8; M = 2; trials = 300",
    "combined_M2_matrix_forms_per_trial": _MATRIX_FORMS + "K = 6; P = 8; M = 2; trials = 70; "
    "sequence_mode = per_trial",
    "combined_M2_matrix_forms_all_users": _MATRIX_FORMS + "K = 6; P = 8; M = 2; trials = 300; "
    "count_all_users = true",
}


def _config(name):
    """The parsed SWEEP config."""
    return parse_config(SWEEP[name].replace("; ", "\n"))


_replay = cache(reference.replay)  # the per-path checks replay their sweep configs again


def _fields(record):
    """The record's fields, NaN (a flagged row's ber and interval) as a comparable value."""
    return tuple("nan" if value != value else value for value in astuple(record))


def _assert_matches_reference(cfg, records):
    """records against reference.replay(cfg), field by field.

    Where the reference counts no tie the records are equal.  A tied
    decision may move bit_errors, and a tied lambda_max(H) nonconv, by one
    each; the test then compares the other fields and reports the tied trials.
    """
    ref = _replay(cfg)
    report = [f"nonconv at trials {ref.nonconv_ties}"] if ref.nonconv_ties else []
    for got, want, spec in zip(records, ref.records, cfg.detectors, strict=True):
        tied, trials = ref.ties(spec)
        if tied:
            report.append(f"{spec.kind}:{spec.stage}, {tied} decisions at trials {trials}")
        if tied or ref.nonconv_ties:
            assert abs(got.bit_errors - want.bit_errors) <= tied, report
            assert abs(got.nonconv - want.nonconv) <= len(ref.nonconv_ties), report
            got, want = (
                replace(r, bit_errors=0, ber=0.0, ci_low=0.0, ci_high=0.0, nonconv=0)
                for r in (got, want)
            )
        assert _fields(got) == _fields(want)
    if report:
        warnings.warn("ties within rounding of the decision: " + "; ".join(report))


class TestReferenceSweep:
    """Every SWEEP config's records equal the reference's (see tests/reference.py)."""

    @pytest.mark.parametrize("name", SWEEP)
    def test_records_match_the_reference(self, name):
        cfg = _config(name)
        _assert_matches_reference(cfg, run_ber_experiment(cfg))


class TestFailureIsolation:
    def test_singular_draw_flags_only_the_decorrelator(self):
        # P=1 forces |rho| = 1, a singular but PSD correlation matrix
        recs = _run("K = 2\nP = 1\nsnr_db = 8\ntrials = 5000\ndetectors = mf, decorrelator, mmse\n")
        by = {r.detector: r for r in recs}
        bad = by["decorrelator"]
        assert bad.trials == 0 and bad.bit_errors == 0
        assert math.isnan(bad.ber) and math.isnan(bad.ci_low) and math.isnan(bad.ci_high)
        for name in ("mf", "mmse"):
            assert by[name].trials == 5000
            assert by[name].bit_errors > 0

    @pytest.mark.parametrize("name", ["few_singular", "many_singular"])
    def test_per_trial_skips_only_the_singular_draws(self, name):
        # small P gives some spreading draws a singular R; the decorrelator
        # skips those trials alone instead of blanking its whole row (the
        # sweep checks every row against the reference)
        cfg = _config("per_trial_" + name)
        recs = run_ber_experiment(cfg)
        assert render_ber_csv(recs) == render_ber_csv(run_ber_experiment(cfg, threads=2))
        by = {r.detector: r for r in recs}
        assert 0 < by["decorrelator"].trials < cfg.trials
        assert by["mf"].trials == by["weighted_proposed"].trials == cfg.trials
        for rec in recs:
            assert rec.ber == rec.bit_errors / rec.trials
            assert (rec.ci_low, rec.ci_high) == wilson_interval(rec.bit_errors, rec.trials)

    def test_per_trial_row_is_flagged_when_no_draw_builds(self):
        # P=1 makes every R singular, so the decorrelator never builds; with
        # K=3 over M=2 subcarriers every R_eff has rank <= 2 and is never solved
        for extra, users in (("", 2), ("M = 2\nreceiver = type2\n", 3)):
            recs = _run(
                f"K = {users}\nP = 1\nsnr_db = 8\ntrials = 300\nsequence_mode = per_trial\n"
                f"detectors = mf, decorrelator\n{extra}"
            )
            by = {r.detector: r for r in recs}
            assert by["decorrelator"].trials == 0 and math.isnan(by["decorrelator"].ber)
            assert by["mf"].trials == 300

    def test_per_trial_type2_skips_only_the_unsolvable_trials(self):
        # P=2 gives rank-one R_i on some draws; an R_eff summed from two of
        # them is singular at K=3, and the decorrelator skips those trials alone
        text = (
            "K = 3\nP = 2\nM = 2\nsnr_db = 8\nreceiver = type2\ntrials = 300\n"
            "sequence_mode = per_trial\ndetectors = mf, decorrelator\n"
        )
        recs = _run(text)
        assert render_ber_csv(recs) == render_ber_csv(_run(text, threads=2))
        by = {r.detector: r for r in recs}
        assert 0 < by["decorrelator"].trials < 300
        assert by["mf"].trials == 300 and by["mf"].nonconv > 0

    def test_singular_combined_trial_skips_only_itself(self, rng, monkeypatch):
        # the pivot threshold, not an exact zero pivot, decides: trial 2 is
        # singular to working precision yet LU-solvable
        users, trials = 3, 5
        a = rng.standard_normal((trials, users, users)) + 1j * rng.standard_normal(
            (trials, users, users)
        )
        r_c = a @ a.conj().transpose(0, 2, 1) + np.eye(users)
        v = np.array([1.0, 1j, -1.0]) / np.sqrt(3.0)
        r_c[2] = np.outer(v, v.conj()) * 3.0 + np.outer([1.0, 0, 0], [1.0, 0, 0])
        r_c[2] += 1e-14 * np.eye(users)
        power = rng.uniform(0.5, 2.0, (trials, users))
        r_eff = r_c / power[:, None, :]
        assert np.all(np.isfinite(np.linalg.solve(r_eff[2], np.ones(users))))
        y_c = rng.standard_normal((trials, users)) + 1j * rng.standard_normal((trials, users))
        # the harness solves H = P^-1/2 R_c P^-1/2 against u = P^-1/2 y_c
        root = np.sqrt(power)
        herm, u = r_c / (root[:, :, None] * root[:, None, :]), y_c / root
        stat, solved = simulate._decorrelate(herm, u)
        assert solved.tolist() == [True, True, False, True, True]
        for t in (0, 1, 3, 4):
            assert np.array_equal(stat[t], np.linalg.solve(herm[t], u[t]))
            want = np.linalg.solve(r_eff[t], y_c[t])
            assert np.allclose(root[t] * stat[t], want, rtol=1e-10, atol=1e-12)
        # a regular chunk is proved so by its Cholesky certificate alone
        keep = [0, 1, 3, 4]
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        stat, solved = simulate._decorrelate(herm[keep], u[keep])
        assert solved is None
        assert np.array_equal(stat, np.linalg.solve(herm[keep], u[keep, :, None])[:, :, 0])

    def test_singular_type2_draw_flags_only_the_decorrelator(self):
        # P=1 gives every R_i rank 1, so R_c over M=2 subcarriers is singular at K=3
        text = (
            "K = 3\nP = 1\nM = 2\nsnr_db = 8\nreceiver = type2\ntrials = 20000\n"
            "detectors = mf, decorrelator\n"
        )
        recs = _run(text)
        assert render_ber_csv(recs) == render_ber_csv(_run(text, threads=2))
        by = {r.detector: r for r in recs}
        bad = by["decorrelator"]
        assert bad.trials == 0 and bad.bit_errors == 0 and math.isnan(bad.ber)
        assert by["mf"].trials == 20000
        assert by["mf"].bit_errors > 0 and by["mf"].nonconv > 0


class TestCountPaths:
    """The matrix-form count, folded or from y, against the reference's statistics.

    With D matrix-form detectors and R counted rows each, the harness counts
    from the folded rows (F R, F L) exactly when a fixed-mode run is not
    type2 and D R < K, and otherwise applies F to y, which type2 forms
    user-major.  _linear receives (F R, F L) for the folded count and (R, L)
    for real-plane y.  Either way each statistic is sum_i Re(conj(h_i) z_i)
    with z_i = F_i (R_i x_i + L_i w_i): the reference forms that one trial
    at a time, and the harness's must lie within its rounding band.
    """

    @pytest.mark.parametrize(
        "name",
        ["single", "single_long_list", "type1_all_users", "type2", "type2_all_users",
         "type2_matrix_forms", "per_trial"],
    )
    def test_statistics_and_counts_match_a_plain_loop(self, monkeypatch, name):
        cfg, folded = _config("paths_" + name), name == "single"
        matrix = [d for d in cfg.detectors if cfg.receiver != "type2" or d.kind in ("mf", "mmse")]
        counted = cfg.users if cfg.count_all_users else 1
        type2 = cfg.receiver == "type2"
        assert folded == (
            cfg.sequence_mode == "fixed" and not type2 and len(matrix) * counted < cfg.users
        )

        contexts, stats, received = [], [], Counter()
        detect, count = simulate._detect, simulate._count_matrix_forms
        linear, receive_users = simulate._linear, simulate._receive_users

        def spy_detect(ctx, bits, planes):
            contexts.append(ctx)
            return detect(ctx, bits, planes)

        def spy_linear(pair, scale, h, w):
            received["y" if pair[0] is contexts[-1].correlations else "folded"] += 1
            return linear(pair, scale, h, w)

        def spy_receive_users(*args):
            received["user_major"] += 1
            return receive_users(*args)

        def spy_count(ctx, bits, h, z):
            # the harness's statistic, taken before the count overwrites z
            z = z.reshape(z.shape[:3] + (-1, counted))
            hh = h[..., ctx.rows].transpose(2, 0, 1, 3)[:, :, :, None]
            stats.append((z * hh).sum(axis=(0, 1)))
            return count(ctx, bits, h, z.copy())

        for attr, spy in (("_detect", spy_detect), ("_linear", spy_linear),
                          ("_receive_users", spy_receive_users), ("_count_matrix_forms", spy_count)):
            monkeypatch.setattr(simulate, attr, spy)
        records = run_ber_experiment(cfg)

        # y is formed only where the count is unfolded, and type2 forms it user-major
        assert received.keys() == {"folded" if folded else "user_major" if type2 else "y"}
        assert all(len(ctx.filters) == (2 if folded else 1) for ctx in contexts)
        assert all(ctx.built.all() for ctx in contexts)
        ref = _replay(cfg)
        got = np.concatenate(stats)
        assert got.shape == (cfg.trials, len(matrix), counted)
        want = np.stack([ref.stats[d] for d in matrix], axis=1)
        assert np.all(np.abs(got - want) <= np.stack([ref.bands[d] for d in matrix], axis=1))
        _assert_matches_reference(cfg, records)


class TestType2CombinedDomain:
    """The type2 combined domain against the reference's statistics on the same draws.

    The reference forms each trial's y_i, p, x = h / sqrt(p), u = sum_i
    conj(x_i) y_i and the dense H = sum_i D(conj x_i) R_i D(x_i).  It takes
    every combined-domain statistic from build_filter(kind, H, m, rows=...)
    @ u, the decorrelator's from solve (skipping a trial whose H
    singular_draws flags), and nonconv from eigvalsh.  The statistics of
    _series_stats (every conventional and proposed stage) and _decorrelate
    must lie within its rounding bands, with the same trials skipped, and
    the records must match.  nonconv is counted for every type2 run, also
    one whose detectors are all matrix forms (mf and mmse).
    """

    @pytest.mark.parametrize(
        "name",
        ["M1", "M2_all_users", "M3_identical", "M4_bound", "M3_per_trial",
         "M4_per_trial_all_users", "M2_matrix_forms", "M2_matrix_forms_per_trial",
         "M2_matrix_forms_all_users"],
    )
    def test_counts_and_nonconv_match_a_plain_loop(self, monkeypatch, name):
        cfg = _config("combined_" + name)
        rows = slice(0, cfg.users if cfg.count_all_users else 1)
        stats = {spec: [] for spec in cfg.detectors if spec.kind not in ("mf", "mmse")}
        series, decorrelate = simulate._series_stats, simulate._decorrelate

        def spy_series(*args):
            got = series(*args)
            for spec, stat in got.items():
                stats[spec].append(stat.real)
            return got

        def spy_decorrelate(herm, u):
            stat, solved = decorrelate(herm, u)
            kept = stat[:, rows].real.copy()
            if solved is not None:
                kept[~solved] = np.nan  # a trial whose H is singular is skipped
            stats[DetectorSpec("decorrelator", 1)].append(kept)
            return stat, solved

        for attr, spy in (("_series_stats", spy_series), ("_decorrelate", spy_decorrelate)):
            monkeypatch.setattr(simulate, attr, spy)
        records = run_ber_experiment(cfg)

        ref = _replay(cfg)
        for spec, parts in stats.items():
            got, want = np.concatenate(parts), ref.stats[spec]
            assert np.array_equal(np.isnan(got), np.isnan(want))
            kept = ~np.isnan(want)
            assert np.all(np.abs(got - want)[kept] <= ref.bands[spec][kept])
        _assert_matches_reference(cfg, records)

    @pytest.mark.parametrize(
        "text, nonconv",
        [
            ("K = 6\nP = 8\nM = 2\ntrials = 3000\nseed = 4\n",
             {"fixed": 1262, "per_trial": 917}),
            ("K = 6\nP = 16\nM = 2\ntrials = 2000\nseed = 2\ncount_all_users = true\n",
             {"fixed": 2, "per_trial": 28}),
        ],
        ids=["P8", "P16_all_users"],
    )
    @pytest.mark.parametrize("mode", ["fixed", "per_trial"])
    def test_nonconv_does_not_depend_on_the_other_detectors(self, text, nonconv, mode):
        # nonconv is a property of the draws: a type2 run of matrix forms
        # alone reports the same count as one with a combined-domain detector
        for detectors in ("mf", "mf, mmse", "mf, mmse, conventional:2"):
            records = _run(text + f"receiver = type2\nsnr_db = 8\nsequence_mode = {mode}\n"
                           f"detectors = {detectors}\n")
            assert {r.nonconv for r in records} == {nonconv[mode]}, detectors


class TestType2Layout:
    """Type2 forms y once per chunk, user-major, in a workspace allocated once per detect step."""

    @pytest.mark.parametrize(
        "text, steps, chunks",
        [
            # two blocks: 8192 trials in 32 chunks, then 600 in 3, the last one short
            ("K = 20\nP = 64\nM = 4\ntrials = 8792\ndetectors = mf, conventional:3, mmse\n",
             2, 35),
            # no combined-domain detector: the count reads y, and the combined
            # domain counts nonconv
            ("K = 6\nP = 16\nM = 2\ntrials = 600\ndetectors = mf, mmse\n", 1, 3),
            ("K = 6\nP = 16\nM = 2\ntrials = 600\ncount_all_users = true\n"
             "detectors = mf, mmse\n", 1, 3),
            # per_trial stacks of 32, 32 and 6 draws, each detected in one slice
            ("K = 6\nP = 8\nM = 2\ntrials = 70\nsequence_mode = per_trial\n"
             "detectors = mf, conventional:2, proposed:2, decorrelator, mmse\n", 3, 3),
        ],
        ids=["fixed", "matrix_forms", "matrix_forms_all_users", "per_trial"],
    )
    def test_y_is_formed_user_major_once_per_chunk(self, monkeypatch, text, steps, chunks):
        calls = Counter()
        for name in ("_linear", "_receive_users", "_workspace"):
            original = getattr(simulate, name)

            def spy(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(simulate, name, spy)
        records = _run(text + "receiver = type2\nsnr_db = 8\nseed = 2\n")
        assert all(r.trials > 0 for r in records)
        assert calls == {"_workspace": steps, "_receive_users": chunks}



def _planes(h, w):
    """The (4, ...) real planes h_re, h_im, w_re, w_im of complex fading and noise."""
    return np.stack([h.real, h.imag, w.real, w.imag])


def _trial_by_trial(cfg, rng, count):
    """reference.draw_trial of count trials, stacked as simulate._draw_trials returns them."""
    draws = [reference.draw_trial(cfg, rng, cfg.sigma2()) for _ in range(count)]
    rs, ls, bits, h, w = (np.stack(parts) for parts in zip(*draws))
    return rs.swapaxes(0, 1), ls.swapaxes(0, 1), bits, _planes(h, w)


_DRAW_CONFIGS = {
    "m1": "K = 6\nP = 16\nreceiver = single\n",
    "m3_independent": "K = 6\nP = 16\nM = 3\nreceiver = type1\n",
    "m3_identical": "K = 6\nP = 16\nM = 3\nreceiver = type1\nsubcarrier_sequences = identical\n",
    "m2_singular": "K = 6\nP = 4\nM = 2\nreceiver = type2\n",
    # sets K P + K odd: every other trial starts on a buffered 32-bit half
    "m1_odd": "K = 3\nP = 2\nreceiver = single\n",
    "m3_odd_independent": "K = 3\nP = 2\nM = 3\nreceiver = type1\n",
}


def _draw_cfg(name):
    return parse_config(
        _DRAW_CONFIGS[name] + "snr_db = 6\ndetectors = mf\nsequence_mode = per_trial\n"
    )


def _assert_same_draws(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.array_equal(a, b)
        if a.dtype == np.float64:  # bit for bit, not only equal in value
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestPlaneDraw:
    """The fading and noise planes are the complex draw's stream, bit for bit.

    The reference reads the normals with size=, as four separate arrays, and
    forms h = sqrt(0.5) (a + 1j b) and w = sqrt(sigma2 / 2) (c + 1j d).
    """

    @staticmethod
    def _cfg(subs, extra=""):
        rx = "single" if subs == 1 else "type1"
        return parse_config(
            f"K = 6\nP = 16\nM = {subs}\nreceiver = {rx}\nsnr_db = 3\ndetectors = mf\n{extra}"
        )

    @pytest.mark.parametrize("subs", [1, 4])
    @pytest.mark.parametrize("size", [1, 300])
    def test_draw_symbols_reads_the_complex_stream(self, subs, size):
        cfg = self._cfg(subs)
        rng, ref_rng = np.random.default_rng(41), np.random.default_rng(41)
        got = simulate._draw_symbols(rng, cfg, cfg.sigma2(), size)
        bits, h, w = reference.draw_symbols(cfg, ref_rng, cfg.sigma2(), size)
        _assert_same_draws(got, (bits, _planes(h, w)))
        assert got[1].shape == (4, size, subs, 6)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_odd_blocks_carry_the_buffered_half(self):
        # size K = 15 is odd: the second block starts on the first's spare half
        cfg = parse_config("K = 3\nP = 2\nM = 2\nreceiver = type1\nsnr_db = 3\ndetectors = mf\n")
        rng, ref_rng = np.random.default_rng(47), np.random.default_rng(47)
        for _ in range(2):
            got = simulate._draw_symbols(rng, cfg, cfg.sigma2(), 5)
            bits, h, w = reference.draw_symbols(cfg, ref_rng, cfg.sigma2(), 5)
            _assert_same_draws(got, (bits, _planes(h, w)))
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rng.bit_generator.state["has_uint32"] == 0

    @pytest.mark.parametrize("subs", [1, 4])
    def test_draw_trials_reads_one_trial_blocks(self, subs):
        cfg = self._cfg(subs, "sequence_mode = per_trial\n")
        rng, ref_rng = np.random.default_rng(43), np.random.default_rng(43)
        got = simulate._draw_trials(cfg, rng, cfg.sigma2(), 5)
        _assert_same_draws(got[2:], _trial_by_trial(cfg, ref_rng, 5)[2:])
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestPerTrialDraw:
    """_draw_trials factors a chunk as one stack and reads the per-trial stream."""

    @pytest.mark.parametrize("name", sorted(_DRAW_CONFIGS))
    @pytest.mark.parametrize("count", [1, 32, 33])
    def test_chunk_equals_the_trial_by_trial_draw(self, name, count):
        cfg = _draw_cfg(name)
        rng, ref_rng = np.random.default_rng(31), np.random.default_rng(31)
        got = simulate._draw_trials(cfg, rng, cfg.sigma2(), count)
        _assert_same_draws(got, _trial_by_trial(cfg, ref_rng, count))
        assert got[0].shape == (cfg.subcarriers, count, cfg.users, cfg.users)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("name", ["m1", "m3_independent", "m3_identical"])
    def test_one_factorisation_per_chunk(self, monkeypatch, name):
        # and one raw read per trial, of all its sets' chips and its bits:
        # generate_spreading_set does not run
        cfg = _draw_cfg(name)
        calls = Counter()
        spied = [(simulate, "generate_spreading_set"), (simulate, "correlation_matrix"),
                 (simulate, "noise_transform"), (model._SignDraws, "read")]
        for owner, fn in spied:
            original = getattr(owner, fn)

            def counted(*args, _fn=fn, _original=original, **kwargs):
                calls[(_fn, args[1]) if _fn == "read" else _fn] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, fn, counted)
        simulate._draw_trials(cfg, np.random.default_rng(3), cfg.sigma2(), 33)
        sets = 1 if name == "m3_identical" else cfg.subcarriers
        size = sets * cfg.users * cfg.chips + cfg.users
        assert calls == {("read", size): 33, "correlation_matrix": 1, "noise_transform": 1}

    @pytest.mark.parametrize("name", ["m1", "m3_independent", "m3_identical"])
    def test_a_refused_stack_is_an_error_not_a_redraw(self, monkeypatch, name):
        # +/-1 Gram matrices are PSD, so a refusal would be a bug in the
        # factorisation: it surfaces instead of silently changing the stream
        cfg = _draw_cfg(name)
        seen = []

        def refusing(r):
            seen.append(r.shape)
            raise NotPositiveSemidefiniteError("refused")

        monkeypatch.setattr(simulate, "noise_transform", refusing)
        with pytest.raises(NotPositiveSemidefiniteError, match="refused"):
            simulate._draw_trials(cfg, np.random.default_rng(8), cfg.sigma2(), 9)
        sets = 1 if name == "m3_identical" else cfg.subcarriers
        assert seen == [(sets, 9, cfg.users, cfg.users)]
        fixed = parse_config(_DRAW_CONFIGS[name] + "snr_db = 6\ndetectors = mf\n")
        for run in (cfg, fixed):
            seen.clear()
            with pytest.raises(NotPositiveSemidefiniteError, match="refused"):
                run_ber_experiment(run)
            assert len(seen) == 1

    def test_records_do_not_depend_on_the_chunk_size(self, monkeypatch):
        texts = [
            "K = 6\nP = 8\nM = 2\nreceiver = type1\nsnr_db = 8\ntrials = 70\nseed = 2\n"
            "sequence_mode = per_trial\ndetectors = mf, conventional:2, decorrelator, mmse\n",
            # a per_trial stack is detected whole: the chunk is the detect step's too
            "K = 6\nP = 8\nM = 2\nreceiver = type2\nsnr_db = 8\ntrials = 70\nseed = 3\n"
            "sequence_mode = per_trial\ndetectors = mf, conventional:2, proposed:2, "
            "decorrelator, mmse\n",
        ]
        records = [render_ber_csv(_run(text)) for text in texts]
        monkeypatch.setattr(simulate, "_DRAW_CHUNK", 7)
        assert [render_ber_csv(_run(text)) for text in texts] == records


class TestSpreadingStatistics:
    """per_trial draws follow the law of generate_spreading_set.

    lambda_max of K random +-1 sequences of P chips tends to the edge
    (1 + sqrt(K/P))^2 of the random-spreading spectrum (Grant & Schlegel,
    IEEE Trans. Commun. 49(10), 2001), so the rate of draws on which the
    cancellation series diverges, lambda_max >= 2, rises with K/P: it is a
    small finite-K fluctuation while the edge is below 2 and a majority well
    above it.
    """

    USERS, DRAWS = 8, 2000

    def _direct_rate(self, chips, seed):
        rng = np.random.default_rng(seed)
        sets = np.array([generate_spreading_set(self.USERS, chips, rng) for _ in range(self.DRAWS)])
        return np.mean(np.linalg.eigvalsh(correlation_matrix(sets))[:, -1] >= 2.0)

    def test_per_trial_rate_matches_direct_draws_and_the_edge(self):
        rates = []
        for chips in (64, 32, 16):  # edge 1.83, 2.25, 2.91
            cfg = parse_config(
                f"K = {self.USERS}\nP = {chips}\nsnr_db = 6\ndetectors = mf\n"
                "sequence_mode = per_trial\n"
            )
            correlations = simulate._draw_trials(
                cfg, np.random.default_rng(chips), cfg.sigma2(), self.DRAWS
            )[0]
            got = np.mean(np.linalg.eigvalsh(correlations[0])[:, -1] >= 2.0)
            want = self._direct_rate(chips, 1000 + chips)
            pooled = (got + want) / 2
            assert abs(got - want) <= 4 * math.sqrt(pooled * (1 - pooled) * 2 / self.DRAWS)
            rates.append(got)
        assert rates[0] < rates[1] < rates[2]
        assert rates[0] < 0.05
        assert rates[2] > 0.5

    def test_require_convergent_redraws_at_the_direct_rate(self, monkeypatch):
        # attempts until a convergent draw are geometric: per seed, the
        # redraws have mean p / (1 - p) and variance p / (1 - p)^2
        chips, seeds = 24, 200
        calls = Counter()
        original = simulate.generate_spreading_set

        def counted(*args, **kwargs):
            calls["draws"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(simulate, "generate_spreading_set", counted)
        for seed in range(seeds):
            run_ber_experiment(parse_config(
                f"K = {self.USERS}\nP = {chips}\nsnr_db = 6\ndetectors = mf\n"
                f"require_convergent = true\ntrials = 1\nseed = {seed}\n"
            ))
        redraws = calls["draws"] - seeds
        p = self._direct_rate(chips, 77)
        mean = seeds * p / (1 - p)
        var = seeds * p / (1 - p) ** 2 + (seeds / (1 - p) ** 2) ** 2 * p * (1 - p) / self.DRAWS
        assert abs(redraws - mean) <= 4 * math.sqrt(var)
        assert redraws > 0


class TestNonconvCertificate:
    """The Cholesky certificate must count exactly what eigvalsh counts."""

    def _forbid_eigvalsh(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("certificate fell back to eigvalsh")
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)

    def test_all_convergent_chunk_needs_no_eigvalsh(self, rng, monkeypatch):
        rs = np.stack([random_correlation(rng, 6, 128) for _ in range(2)])
        herm = hermitian(rs, scaled(fading(rng, (256, 2, 6))))
        assert nonconvergent(herm) == 0
        self._forbid_eigvalsh(monkeypatch)
        assert simulate._count_nonconvergent(herm) == 0

    def test_mixed_chunk_matches_eigvalsh(self, rng):
        rs = np.stack([random_correlation(rng, 12, 16) for _ in range(2)])
        herm = hermitian(rs, scaled(fading(rng, (256, 2, 12))))
        want = nonconvergent(herm)
        assert 0 < want < 256
        assert simulate._count_nonconvergent(herm) == want

    def test_lambda_max_within_margin_of_two(self, rng, monkeypatch):
        # with M = 1 and unit-modulus h, herm = D(conj h) R D(h) is unitarily
        # similar to R, so lambda_max is set by construction.  At exactly 2,
        # eigvalsh lands on either side and a margin-free Cholesky would
        # certify some draws that eigvalsh counts.
        users = 8
        offsets = (-2e-9, -1e-9, -5e-10, -1e-12, 1e-12, 5e-10, 1e-9, 2e-9) + (0.0,) * 32
        mats = []
        for offset in offsets:
            q, _ = np.linalg.qr(rng.standard_normal((users, users)))
            lam = np.concatenate([rng.uniform(0.1, 1.5, users - 1), [2.0 + offset]])
            h = np.exp(2j * np.pi * rng.uniform(size=(1, 1, users)))
            mats.append(hermitian(((q * lam) @ q.T)[None], scaled(h)))
        herm = np.concatenate(mats)
        assert simulate._count_nonconvergent(herm) == nonconvergent(herm)
        for t, offset in enumerate(offsets):
            one = herm[t : t + 1]
            want = nonconvergent(one)
            if offset:
                assert want == (offset > 0)
            assert simulate._count_nonconvergent(one) == want
        # a draw more than the margin below 2 is proved without eigvalsh
        self._forbid_eigvalsh(monkeypatch)
        assert simulate._count_nonconvergent(herm[:1]) == 0

    # the low-rank bound (fixed mode) settles trials before the dense test

    def _dense_rows(self, monkeypatch):
        """Row counts of every dense H the harness forms from here on."""
        rows = []
        dense = simulate._combined_matrix

        def record(correlations, x):
            rows.append(len(x))
            return dense(correlations, x)

        monkeypatch.setattr(simulate, "_combined_matrix", record)
        return rows

    @staticmethod
    def _two_tier(correlations, h):
        """nonconv of one chunk on fixed (M, K, K) correlations, bound first."""
        bound = simulate._low_rank_bound(correlations)
        return simulate._nonconvergent(bound, correlations[:, None], scaled(h), None)[0]

    def test_unsettled_chunk_falls_back_and_counts_zero(self, rng, monkeypatch):
        # R_1 and R_2 share eigenvectors.  Each has eigenvalue 2.8 on three
        # directions of its own, and R_1 a fourth eigenvalue 1.5, which is c
        # for both.  With h_1 = h_2 of unit modulus, H is similar to
        # (R_1 + R_2) / 2, lambda_max 1.45, but the bound is
        # c + (2.8 - c) / 2 = 2.15: every trial goes to the dense test.
        users = 8
        q, _ = np.linalg.qr(rng.standard_normal((users, users)))
        spectra = [[2.8] * 3 + [1.5] + [0.1] * 4, [0.1] * 5 + [2.8] * 3]
        rs = np.stack([(q * np.array(lam)) @ q.T for lam in spectra])
        h = np.repeat(np.exp(2j * np.pi * rng.uniform(size=(64, 1, users))), 2, axis=1)
        assert nonconvergent(hermitian(rs, scaled(h))) == 0
        assert simulate._unsettled(simulate._low_rank_bound(rs), scaled(h)).all()
        rows = self._dense_rows(monkeypatch)
        assert self._two_tier(rs, h) == 0
        assert rows == [64]

    def test_only_unsettled_rows_reach_the_dense_path(self, rng, monkeypatch):
        rs = np.stack([random_correlation(rng, 20, 64) for _ in range(4)])
        h = fading(rng, (256, 4, 20))
        # fading on one subcarrier alone makes H similar to its R, whose
        # lambda_max the bound cannot put below 2; those trials are nonconv
        top = int(np.argmax(np.linalg.eigvalsh(rs)[:, -1]))
        assert np.linalg.eigvalsh(rs[top])[-1] > 2.0
        h[:8, np.arange(4) != top] *= 1e-3
        open_rows = simulate._unsettled(simulate._low_rank_bound(rs), scaled(h))
        assert open_rows[:8].all() and np.count_nonzero(open_rows) < 16
        rows = self._dense_rows(monkeypatch)
        assert self._two_tier(rs, h) == nonconvergent(hermitian(rs, scaled(h))) >= 8
        assert rows == [np.count_nonzero(open_rows)]

    @pytest.mark.parametrize(
        "offset", (-2e-9, -1e-9, -5e-10, -1e-12, 0.0, 1e-12, 5e-10, 1e-9, 2e-9)
    )
    def test_bound_near_lambda_max_two(self, rng, monkeypatch, offset):
        # M = 1 and unit-modulus h: H is unitarily similar to R and the bound
        # c + lambda_max(V^H V) is lambda_max(R) itself.  It never settles a
        # draw within the margin of 2, and its tiers' allowance keeps it from
        # settling one 2e-9 below 2 as well: the dense test decides them all.
        users, trials = 8, 32
        q, _ = np.linalg.qr(rng.standard_normal((users, users)))
        lam = np.concatenate([rng.uniform(0.1, 1.5, users - 1), [2.0 + offset]])
        rs = ((q * lam) @ q.T)[None]
        h = np.exp(2j * np.pi * rng.uniform(size=(trials, 1, users)))
        want = nonconvergent(hermitian(rs, scaled(h)))
        if offset:
            assert want == trials * (offset > 0)
        rows = self._dense_rows(monkeypatch)
        assert self._two_tier(rs, h) == want
        assert rows == [trials]

    def test_bound_is_skipped_when_it_cannot_settle(self, rng, monkeypatch):
        users = 8
        q, _ = np.linalg.qr(rng.standard_normal((users, users)))
        # c = lambda_4 = 2: no trial could be proved convergent
        rs = ((q * np.array([0.1] * 4 + [2.0, 2.1, 2.2, 2.3])) @ q.T)[None]
        assert simulate._low_rank_bound(rs) is None
        # M r >= K: the bound's test would be no smaller than the dense one
        assert simulate._low_rank_bound(np.stack([np.eye(9)] * 3)) is None
        h = fading(rng, (64, 1, users))
        rows = self._dense_rows(monkeypatch)
        assert self._two_tier(rs, h) == nonconvergent(hermitian(rs, scaled(h)))
        assert rows == [64]

    # the trace tier: sound on any PSD G, fed by the tables without forming G

    @pytest.mark.parametrize("offset", (-1e-9, -1e-12, 1e-12, 1e-9))
    def test_trace_tier_never_settles_lambda_max_at_headroom(self, rng, offset):
        n, draws, headroom = 12, 64, 0.7
        q, _ = np.linalg.qr(
            rng.standard_normal((5 * draws, n, n)) + 1j * rng.standard_normal((5 * draws, n, n))
        )
        spectra = np.concatenate([
            rng.uniform(0.0, 1.0, (draws, n)),
            rng.uniform(0.0, 1.0, (draws, n)) ** 8,               # one eigenvalue dominates
            rng.uniform(0.99, 1.0, (draws, n)),                   # clustered at the top
            np.eye(n)[np.zeros(draws, dtype=int)],                # rank one
            np.ones((draws, n)),                                  # a multiple of I
        ])
        spectra *= headroom * (1 + offset) / spectra.max(axis=1, keepdims=True)
        gram = (q * spectra[:, None, :]) @ np.conj(q).transpose(0, 2, 1)
        trace = np.trace(gram, axis1=1, axis2=2).real
        frob2 = np.sum(np.abs(gram) ** 2, axis=(1, 2))
        settled = simulate._trace_settled(trace, frob2, n, headroom)
        lam_max = np.linalg.eigvalsh(gram)[:, -1]
        assert not np.any(lam_max[settled] >= headroom)
        # the same bound on G^2, as _unsettled applies it to the G it forms
        frob4 = np.sum(np.abs(gram @ gram) ** 2, axis=(1, 2))
        assert not np.any(lam_max[simulate._trace_settled(frob2, frob4, n, headroom**2)] >= headroom)
        # the bound m + s sqrt(n - 1) is exact for rank one and for a multiple
        # of I (s = 0), the stacks where the allowance alone keeps it sound
        rank_one, scalar = slice(3 * draws, 4 * draws), slice(4 * draws, None)
        mean = trace / n
        ws = mean + np.sqrt((n - 1) * np.maximum(frob2 / n - mean**2, 0.0))
        assert np.allclose(ws[rank_one], headroom * (1 + offset), rtol=1e-12, atol=0)
        assert np.allclose(mean[scalar], headroom * (1 + offset), rtol=1e-13, atol=0)
        # rank one settles at 1e-9 below headroom, not at 1e-12
        assert settled[rank_one].all() == (offset == -1e-9)
        assert not settled[scalar].any()
        if offset > 0:
            assert not settled.any()

    @staticmethod
    def _spectral(rng, spectra):
        """(M, K, K) correlations with the given spectra and random eigenvectors."""
        out = []
        for lam in spectra:
            q, _ = np.linalg.qr(rng.standard_normal((len(lam), len(lam))))
            out.append((q * np.array(lam)) @ q.T)
        return np.stack(out)

    @staticmethod
    def _gram(bound, x):
        """Each trial's G = V^H V (see simulate._unsettled), formed explicitly."""
        weights = bound[1]
        vh = (x[:, :, None, :] * weights).reshape(len(x), -1, weights.shape[-1])
        return vh @ np.conj(vh).transpose(0, 2, 1)

    @pytest.mark.parametrize("subs", (1, 2, 4))
    def test_gram_moments_match_an_explicit_gram(self, rng, subs):
        users = 20
        rs = np.stack([random_correlation(rng, users, 128) for _ in range(subs)])
        x = scaled(fading(rng, (256, subs, users)))
        bound = simulate._low_rank_bound(rs)
        assert bound[3].shape == (subs * (subs - 1) // 2, users, 9)
        trace, frob2 = simulate._gram_moments(bound, x.transpose(1, 2, 0))
        gram = self._gram(bound, x)
        assert np.allclose(trace, np.trace(gram, axis1=1, axis2=2).real, rtol=1e-13, atol=0)
        assert np.allclose(frob2, np.sum(np.abs(gram) ** 2, axis=(1, 2)), rtol=1e-13, atol=0)

    @pytest.mark.parametrize(
        "spectra, settled, unsettled",
        [
            ([[1.8, 1.5, 1.2, 0.7, 0.5, 0.3, 0.2, 0.1]], 256, 0),
            ([[2.1, 1.5, 1.2, 0.7, 0.5, 0.3, 0.2, 0.1]], 0, 256),
            ([[2.2, 1.3, 1.1, 0.7, 0.5, 0.3, 0.2, 0.1],
              [1.9, 1.6, 1.0, 0.6, 0.6, 0.4, 0.2, 0.1]], 198, 15),
        ],
        ids=["M1-settled", "M1-open", "M2"],
    )
    def test_unsettled_is_the_exact_bound(self, spectra, settled, unsettled):
        # the trace tier settles what it can, and the G^2 tier most of the
        # rest; the open mask may hold trials whose G stays below the
        # headroom, but every trial whose G reaches it (unsettled of them)
        rng = np.random.default_rng(7)
        rs = self._spectral(rng, spectra)
        h = fading(rng, (256, len(rs), rs.shape[-1]))
        if len(rs) == 1:
            h /= np.abs(h)  # H is similar to R_1, and G = diag(lambda_j - c)
        x = scaled(h)
        bound = simulate._low_rank_bound(rs)
        headroom, weights = bound[:2]
        moments = simulate._gram_moments(bound, x.transpose(1, 2, 0))
        tier = simulate._trace_settled(*moments, weights.shape[0] * weights.shape[1], headroom)
        lam_max = np.linalg.eigvalsh(self._gram(bound, x))[:, -1]
        assert np.count_nonzero(tier) == settled
        assert not np.any(lam_max[tier] >= headroom)
        got = simulate._unsettled(bound, x)
        assert not np.any(lam_max[~got] >= headroom)
        assert np.count_nonzero(lam_max >= headroom) == unsettled

    @pytest.mark.parametrize(
        "chips, chunks_bounded",
        [(64, 36), (48, 2)],  # P = 48: the first chunk of each block drops the bound
        ids=["settles", "dropped"],
    )
    def test_bound_changes_no_record(self, monkeypatch, chips, chunks_bounded):
        text = (
            f"K = 20\nP = {chips}\nM = 4\nsnr_db = 12\nreceiver = type2\ntrials = 9000\n"
            "seed = 1\ndetectors = mf, conventional:3, proposed:3, decorrelator\n"
        )
        calls = []
        unsettled = simulate._unsettled

        def record(*args):
            calls.append(1)
            return unsettled(*args)

        monkeypatch.setattr(simulate, "_unsettled", record)
        records = _run(text)
        assert len(calls) == chunks_bounded
        monkeypatch.setattr(simulate, "_low_rank_bound", lambda correlations: None)
        assert _run(text) == records
        assert not calls[chunks_bounded:]

    CONVENTIONAL_ONLY = (
        "K = 20\nP = 64\nM = 4\nsnr_db = 8\nnear_far = tenfold\nreceiver = type2\n"
        "trials = 12000\ndetectors = mf, conventional:4, mmse\n"
    )

    def test_conventional_only_run_never_forms_r_c(self, monkeypatch):
        # the bound settles every trial at this seed, and with user 0 counted
        # the conventional and proposed chains step matrix-free; the counts
        # come from the harness that formed the dense matrix for every trial
        def fail(*args):
            raise AssertionError("formed H")

        monkeypatch.setattr(simulate, "_combined_matrix", fail)
        common = {("mf", 1): 2558, ("conventional", 4): 63, ("mmse", 1): 918}
        proposed = {("proposed", m): e for m, e in ((2, 403), (3, 85), (4, 57), (5, 57))}
        for detectors, errors in (
            ("mf, conventional:4, mmse", common),
            ("mf, conventional:4, proposed:2..5, mmse", common | proposed),
        ):
            text = self.CONVENTIONAL_ONLY.replace("mf, conventional:4, mmse", detectors)
            text += "seed = 5\n"
            records = _run(text)
            assert {(r.detector, r.stage): r.bit_errors for r in records} == errors
            assert all(r.trials == 12000 and r.nonconv == 0 for r in records)
            assert _run(text, threads=2) == records

    def test_all_users_proposed_steps_with_the_dense_h(self, monkeypatch):
        # with every user counted, proposed takes the dense I - H step: H is
        # formed for every trial, though the bound settles them all
        rows = self._dense_rows(monkeypatch)
        text = self.CONVENTIONAL_ONLY.replace("conventional:4,", "conventional:4, proposed:3,")
        text += "seed = 5\ncount_all_users = true\n"
        records = _run(text)
        assert {(r.detector, r.stage): r.bit_errors for r in records} == {
            ("mf[all-users]", 1): 29885, ("conventional[all-users]", 4): 733,
            ("mmse[all-users]", 1): 11867, ("proposed[all-users]", 3): 960,
        }
        assert all(r.trials == 240000 and r.nonconv == 0 for r in records)
        assert sum(rows) == 12000

    def test_golden_run_forms_r_c_for_the_open_trials_alone(self, monkeypatch):
        # TestGoldenCounts' type2_k20p64m4 config, conventional-only: H is
        # formed for the few trials the bound leaves open, never a chunk
        rows = self._dense_rows(monkeypatch)
        records = _run(self.CONVENTIONAL_ONLY + "seed = 1\n")
        assert {r.detector: r.bit_errors for r in records} == {
            "mf": 2980, "conventional": 71, "mmse": 1133,
        }
        assert all(r.trials == 12000 and r.nonconv == 0 for r in records)
        assert 0 < sum(rows) < 16


class TestGoldenCounts:
    """Fixed-mode bit_errors and nonconv, pinned bit for bit.

    The type2 counts come from the dense harness that built R_eff for every
    draw and ran eigvalsh on each for nonconv; the counted-rows counts come
    from the harness that filtered and decided every user.  Every config
    spans more than one 8192-trial block.  A change that moves any count
    changed a draw or a rounding that decides a bit.
    """

    DETECTORS = "mf, conventional:4, proposed:4, decorrelator, mmse"
    BASE = (
        "K = {K}\nP = {P}\nM = {M}\nsnr_db = {snr}\nnear_far = tenfold\n"
        "receiver = {rx}\ntrials = {trials}\nseed = {seed}\ndetectors = %s\n" % DETECTORS
    )

    @pytest.mark.parametrize(
        "params, nonconv, errors",
        [
            (
                dict(K=20, P=64, M=4, snr=14, rx="type1", trials=20000, seed=1),
                0,
                {"mf": 4915, "conventional": 2115, "proposed": 1472,
                 "decorrelator": 4, "mmse": 101},
            ),
            (
                dict(K=20, P=64, M=4, snr=8, rx="type2", trials=12000, seed=1),
                0,
                {"mf": 2980, "conventional": 71, "proposed": 70,
                 "decorrelator": 67, "mmse": 1133},
            ),
            (   # mixed nonconv
                dict(K=12, P=16, M=4, snr=14, rx="type2", trials=12000, seed=4),
                862,
                {"mf": 3775, "conventional": 467, "proposed": 319,
                 "decorrelator": 1, "mmse": 928},
            ),
            (   # nearly every draw outside the convergence region
                dict(K=20, P=32, M=2, snr=14, rx="type2", trials=9000, seed=5),
                8985,
                {"mf": 3529, "conventional": 3484, "proposed": 3211,
                 "decorrelator": 15, "mmse": 1041},
            ),
        ],
        ids=["type1_k20p64m4", "type2_k20p64m4", "type2_mixed", "type2_near_total"],
    )
    def test_counts_are_pinned(self, params, nonconv, errors):
        records = _run(self.BASE.format(**params))
        assert {r.detector: r.bit_errors for r in records} == errors
        assert {r.nonconv for r in records} == {nonconv}
        assert all(r.trials == params["trials"] for r in records)

    def test_type2_proposed_stages_are_pinned(self):
        # P = 48 keeps the R_eff arithmetic inexact; the counts come from the
        # harness that summed each stage's product applied to y_c
        records = _run(
            "K = 12\nP = 48\nM = 2\nsnr_db = 12\nreceiver = type2\ntrials = 12000\nseed = 9\n"
            "detectors = proposed:2..5, decorrelator, conventional:3\n"
        )
        assert [r.bit_errors for r in records] == [34, 34, 38, 34, 31, 33]
        assert all(r.trials == 12000 and r.nonconv == 0 for r in records)

    FAMILY = (
        "mf, conventional:2..5, proposed:2..5, mmse_converging:4, "
        "modified_mmse:4, weighted_proposed:4, decorrelator, mmse"
    )

    @pytest.mark.parametrize(
        "extra, errors",
        [
            (   # user 0 only: all 14 detectors in one GEMM
                f"snr_db = 15\ntrials = 20000\ndetectors = {FAMILY}\n",
                [5283, 5172, 3552, 3453, 210, 7577, 385,
                 4207, 2379, 5283, 3705, 2523, 2347, 783],
            ),
            (   # every user: one GEMM per detector
                f"snr_db = 12\ntrials = 10000\ncount_all_users = true\ndetectors = {FAMILY}\n",
                [31528, 27703, 24809, 21623, 2137, 39431, 5161,
                 22407, 15698, 31528, 22451, 19524, 16151, 6876],
            ),
            (   # every user, four subcarriers combined after filtering
                "M = 4\nreceiver = type1\nsnr_db = 8\ntrials = 10000\n"
                "count_all_users = true\ndetectors = %s\n" % DETECTORS,
                [22290, 933, 25090, 9368, 17491],
            ),
        ],
        ids=["single_family", "single_family_all_users", "type1_m4_all_users"],
    )
    def test_counted_rows_are_pinned(self, extra, errors):
        cfg = parse_config("K = 20\nP = 64\nnear_far = tenfold\nseed = 1\n" + extra)
        records = run_ber_experiment(cfg)
        assert [r.bit_errors for r in records] == errors  # (kind, stage) order
        counted = cfg.trials * (cfg.users if cfg.count_all_users else 1)
        assert all(r.trials == counted and r.nonconv == 0 for r in records)

    # per_trial counts come from the harness that rebuilt every detector for
    # each one-trial block; records are in (kind, stage) order
    @pytest.mark.parametrize(
        "text, nonconv, errors",
        [
            (
                "K = 20\nP = 64\nnear_far = tenfold\nsnr_db = 15\ntrials = 600\n"
                f"seed = 3\ndetectors = {FAMILY}\n",
                0,
                [200, 175, 198, 163, 4, 211, 16, 117, 72, 200, 162, 174, 158, 43],
            ),
            (   # the per_trial_family benchmark workload's config at 2000 trials
                "K = 20\nP = 64\nnear_far = tenfold\nsnr_db = 15\ntrials = 2000\n"
                f"seed = 1\ndetectors = {FAMILY}\n",
                0,
                [669, 578, 645, 572, 19, 678, 40, 389, 272, 669, 549, 560, 538, 157],
            ),
            (   # every user; P = 48 keeps the filter arithmetic inexact
                "K = 20\nP = 48\nnear_far = tenfold\nsnr_db = 12\ntrials = 600\n"
                f"seed = 2\ncount_all_users = true\ndetectors = {FAMILY}\n",
                0,
                [2766, 2408, 3249, 2634, 131, 2562, 413, 1660, 1303, 2766, 2384, 2917, 2689, 946],
            ),
            (
                "K = 10\nP = 32\nM = 2\nreceiver = type1\nnear_far = tenfold\n"
                "snr_db = 10\ntrials = 400\nseed = 4\ncount_all_users = true\n"
                f"detectors = {FAMILY}\n",
                0,
                [490, 408, 464, 358, 27, 590, 132, 260, 204, 490, 325, 334, 269, 48],
            ),
            (
                "K = 12\nP = 16\nM = 2\nreceiver = type2\nsnr_db = 12\ntrials = 600\n"
                "seed = 6\ndetectors = mf, conventional:3, proposed:3, decorrelator, mmse\n",
                475,
                [11, 1, 22, 2, 14],
            ),
        ],
        ids=[
            "single_family", "per_trial_family", "p48_all_users", "type1_m2_all_users", "type2_m2",
        ],
    )
    def test_per_trial_counts_are_pinned(self, text, nonconv, errors):
        cfg = parse_config(text + "sequence_mode = per_trial\n")
        records = run_ber_experiment(cfg)
        assert [r.bit_errors for r in records] == errors
        counted = cfg.trials * (cfg.users if cfg.count_all_users else 1)
        assert all(r.trials == counted and r.nonconv == nonconv for r in records)

    def test_per_trial_two_blocks_are_pinned_at_any_thread_count(self):
        text = (
            "K = 4\nP = 32\nsnr_db = 8\ntrials = 9000\nseed = 8\nsequence_mode = per_trial\n"
            "detectors = mf, conventional:3, proposed:3, weighted_proposed:3, "
            "mmse_converging:3, modified_mmse:3, decorrelator, mmse\n"
        )
        records = _run(text)
        assert [r.bit_errors for r in records] == [346, 330, 469, 337, 344, 342, 335, 340]
        assert all(r.trials == 9000 for r in records)
        assert _run(text, threads=2) == records


class TestReceiverComparison:
    def test_combining_first_beats_filtering_first_at_desk_scale(self):
        base = (
            "K = 6\nP = 16\nM = 2\nsnr_db = 10\ntrials = 30000\nseed = 3\n"
            "detectors = conventional:3\nreceiver = %s\n"
        )
        t1 = _run(base % "type1")[0]
        t2 = _run(base % "type2")[0]
        assert t2.ber < t1.ber
        assert t1.nonconv == 0  # reported for combined-domain runs only
        assert t2.nonconv >= 0


class TestSinrExperiment:
    CFG = (
        "K = 5\nP = 32\nsnr_db = 12\nseed = 9\ndetectors = mf\n"
        "sweep_user = 1\nsweep_stages = 2,3\nsweep_weights = 0:2:0.5\n"
    )

    def test_points_cover_grid_per_stage(self):
        points = run_sinr_experiment(parse_config(self.CFG))
        assert len(points) == 2 * 5
        assert {p.stage for p in points} == {2, 3}
        assert all(p.user == 1 for p in points)
        for stage in (2, 3):
            weights = [p.weight for p in points if p.stage == stage]
            assert weights == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert all(math.isfinite(p.sinr_db) for p in points)

    def test_deterministic(self):
        a = run_sinr_experiment(parse_config(self.CFG))
        b = run_sinr_experiment(parse_config(self.CFG))
        assert a == b

    def test_single_carrier_only(self):
        cfg = parse_config(
            "K = 4\nP = 16\nM = 2\nsnr_db = 10\nreceiver = type1\ndetectors = mf\n"
        )
        with pytest.raises(ConfigError):
            run_sinr_experiment(cfg)
