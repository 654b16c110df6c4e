"""lpic benchmark: BER-harness trials per second on four detector workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload single_family --seed 1 --seconds 24 --trace 0

Each call goes through the user path in-process,
``lpic.cli.main(["ber", cfg, "--output", csv, "--threads", n])``, and its CSV
is read back with ``lpic.parse_records`` and checked.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate traced
run.  A run manifest and the merged spans go to ``.perfbench_out/``; the last
line of standard output is the JSON result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# BLAS is pinned before NumPy loads, so N worker threads mean N compute threads
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

DEFAULT_SEED = 1
SETUP_RUNS = 7
MIN_CALLS = 3
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

# fresh interpreter: import lpic.cli plus one ber call (timed inside the child)
SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import lpic.cli
rc = lpic.cli.main(["ber", sys.argv[2], "--output", sys.argv[3], "--threads", "1"])
print(time.perf_counter() - t0)
sys.exit(rc)
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing package, failed call)."""


def config_text(workload: str, seed: int, trials: int) -> str:
    entries = {**COMMON, "sequence_mode": "fixed", **WORKLOADS[workload],
               "trials": trials, "seed": seed}
    return "".join(f"{k} = {v}\n" for k, v in entries.items())


def timing_stats(samples: list[float]) -> dict:
    """Median plus the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    out = {"n": n, "median": statistics.median(samples)}
    pct = int(100 * (1 - 10 / n)) if n > 20 else 0
    if pct > 50:
        out[f"p{pct}"] = statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]
    return out


def git_commit() -> str:
    """HEAD commit read from .git without starting a process."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.exists():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


def manifest(np, workload: str, seed: int, trials: int, workers: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "trials_per_call": trials,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "worker_threads": [1, workers],
        "git_commit": git_commit(),
    }


class Bench:
    """One workload at one seed: config, calls, record checks."""

    def __init__(self, lpic, workload: str, seed: int, trials: int):
        self.lpic = lpic
        self.workload, self.seed, self.trials = workload, seed, trials
        self.dir = OUT / workload
        self.dir.mkdir(parents=True, exist_ok=True)
        self.cfg = self.dir / f"seed{seed}.cfg"
        self.cfg.write_text(config_text(workload, seed, trials))
        self.csv = self.dir / f"seed{seed}.csv"
        self.reference = None
        ref = HERE / "reference" / f"{workload}.csv"
        if seed == DEFAULT_SEED and trials == WORKLOADS[workload]["trials"]:
            self.reference = lpic.parse_records(ref.read_text())
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, threads: int):
        """One user-path call; returns (wall seconds, records)."""
        argv = ["ber", str(self.cfg), "--output", str(self.csv), "--threads", str(threads)]
        t0 = time.perf_counter()
        rc = self.lpic.cli.main(argv)
        wall = time.perf_counter() - t0
        if rc != 0:
            raise BenchError(f"lpic ber exited {rc} on {self.workload}")
        return wall, self.lpic.parse_records(self.csv.read_text())

    def check(self, records, what: str) -> None:
        """Count rows; a row fails on trials = 0 or any field off the reference."""
        if self.reference is None:
            self.reference = records       # this seed: the first call is the reference
        self.attempted += len(records)
        if len(records) != len(self.reference):
            self.failed += len(records)
            self.errors.append(f"{what}: {len(records)} rows, want {len(self.reference)}")
            return
        for got, want in zip(records, self.reference):
            if got.trials == 0 or got != want:
                self.failed += 1
                self.errors.append(f"{what}: {got} != {want}")

    def exact_rows(self, records) -> int:
        return sum(
            (g.bit_errors, g.nonconv, g.trials) == (w.bit_errors, w.nonconv, w.trials)
            for g, w in zip(records, self.reference)
        )

    def sanity(self, records) -> None:
        """Reference-free checks that hold at every seed."""
        for r in records:
            ok = (
                r.trials == self.trials
                and 0 <= r.bit_errors <= r.trials
                and r.ber == r.bit_errors / r.trials
                and r.ci_low <= r.ber <= r.ci_high
                and 0 <= r.nonconv <= r.trials
                and (r.receiver == "type2" or r.nonconv == 0)
            )
            if not ok:
                self.errors.append(f"implausible record {r}")
        if self.workload in ("single_family", "per_trial_family"):
            ber = {(r.detector, r.stage): r.ber for r in records}
            if ber[("mmse", 1)] > ber[("mf", 1)]:
                self.errors.append("mmse BER above matched-filter BER")

    def setup_times(self) -> list[float]:
        """Fresh-interpreter set-up; the first run warms caches and is dropped."""
        cfg = self.dir / f"setup-seed{self.seed}.cfg"
        cfg.write_text(config_text(self.workload, self.seed, 1))
        csv = self.dir / f"setup-seed{self.seed}.csv"
        times = []
        for _ in range(SETUP_RUNS + 1):
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(cfg), str(csv)],
                cwd=ROOT, capture_output=True, text=True, timeout=60,
            )
            if proc.returncode != 0:
                raise BenchError(f"set-up run failed: {proc.stderr.strip()}")
            times.append(float(proc.stdout.strip().splitlines()[-1]))
            for r in self.lpic.parse_records(csv.read_text()):
                if r.trials != 1:
                    self.errors.append(f"set-up row failed: {r}")
        return times[1:]


def run_untraced(bench: Bench, seconds: float, workers: int) -> tuple[dict, dict]:
    setups = bench.setup_times()
    _, first = bench.call(1)               # warm-up; the reference at this seed
    bench.check(first, "warm-up")
    bench.sanity(first)
    walls = {1: [], workers: []}
    deadline = time.perf_counter() + seconds
    while min(len(w) for w in walls.values()) < MIN_CALLS or time.perf_counter() < deadline:
        threads = min(walls, key=lambda t: len(walls[t]))   # alternate 1, workers, 1, ...
        wall, records = bench.call(threads)
        walls[threads].append(wall)
        bench.check(records, f"threads={threads}")
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "trials_per_s": (bench.trials / statistics.median(walls[1]), "1/s"),
        "trials_per_s_t2": (bench.trials / statistics.median(walls[workers]), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }
    timings = {"call_s_threads1": walls[1], f"call_s_threads{workers}": walls[workers],
               "setup_s": setups}
    return metrics, timings


def run_traced(bench: Bench, seconds: float, workers: int, modules: dict) -> tuple[dict, dict]:
    from spans import Tracer, call_layers, originals, restored

    tracer = Tracer()
    saved = originals(modules)
    _, first = bench.call(1)
    bench.check(first, "warm-up")
    bench.sanity(first)
    bench.check(bench.call(workers)[1], f"threads={workers}")
    plain, traced, layers, exact = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_CALLS or time.perf_counter() < deadline:
        wall, records = bench.call(1)
        plain.append(wall)
        bench.check(records, "untraced")
        call = tracer.begin_call()
        with tracer.installed(modules):
            with tracer.span("cli.main"):
                wall, records = bench.call(1)
        traced.append(wall)
        bench.check(records, "traced")
        exact.append(bench.exact_rows(records))
        layers.append(call_layers([s for s in tracer.spans() if s[0] == call],
                                  bench.lpic.FILTER_KINDS))
    if not restored(modules, saved):
        bench.errors.append("trace wrappers left installed")
    tracer.write(bench.dir / f"spans-seed{bench.seed}.jsonl")

    metrics = {}
    for name, value in layers[0].items():
        if isinstance(value, int):
            if any(c[name] != value for c in layers):
                bench.errors.append(f"traced count {name} differs between calls")
            metrics[name] = (value, "count")
        else:
            metrics[name] = (statistics.median(c[name] for c in layers), "s")
    nonconv = max(r.nonconv for r in first)
    metrics["simulate.nonconv"] = (nonconv, "count")
    metrics["simulate.exact_rows"] = (min(exact), "count")
    metrics["trace.overhead_share"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0, "share")
    timings = {"call_s_untraced": plain, "call_s_traced": traced}
    return metrics, timings


def load_package():
    if not (SRC / "lpic" / "__init__.py").is_file():
        raise BenchError(f"no lpic package under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy as np
    import lpic
    import lpic.cli
    import lpic.simulate

    return np, lpic, {"cli": lpic.cli, "simulate": lpic.simulate}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=24.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trials", type=int, help="override trials per call (smoke tests)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        np, lpic, modules = load_package()
        trials = args.trials or WORKLOADS[args.workload]["trials"]
        workers = min(2, os.cpu_count() or 1)
        bench = Bench(lpic, args.workload, args.seed, trials)
        info = manifest(np, args.workload, args.seed, trials, workers)
        if args.trace:
            metrics, timings = run_traced(bench, args.seconds, workers, modules)
        else:
            metrics, timings = run_untraced(bench, args.seconds, workers)
    except (BenchError, OSError, ImportError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    info["timings"] = {k: timing_stats(v) for k, v in timings.items()}
    info["errors"] = bench.errors[:20]
    print(json.dumps(info))
    info["samples"] = timings
    (bench.dir / f"manifest-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(info, indent=1) + "\n")
    correct = not bench.errors and bench.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
