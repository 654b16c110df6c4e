"""Experiment configuration: `key = value` text files with `#` comments.

Minimal example::

    # twenty users, 64-chip sequences
    K = 20
    P = 64
    snr_db = 15
    detectors = conventional:2..5, proposed:2..5, decorrelator

Detector entries are `kind`, `kind:stage`, or `kind:lo..hi` with kinds from
filters.FILTER_KINDS.  User indices are 0-based throughout; the `tenfold`
near-far profile puts every second user (0-based odd indices) at 10x
amplitude with user 0 the unit-amplitude desired user.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .filters import FILTER_KINDS, STAGED_KINDS

NEAR_FAR_PROFILES = ("none", "tenfold")
RECEIVERS = ("single", "type1", "type2")
SEQUENCE_MODES = ("fixed", "per_trial")
SUBCARRIER_MODES = ("independent", "identical")
# filter kinds with a combined-domain (receiver=type2) form
TYPE2_KINDS = ("mf", "conventional", "proposed", "decorrelator", "mmse")

_DEFAULT_TRIALS = 100_000
_DEFAULT_SEED = 1


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass(frozen=True, order=True)
class DetectorSpec:
    kind: str
    stage: int


@dataclass(frozen=True)
class ExperimentConfig:
    users: int
    chips: int
    snr_db: float
    detectors: tuple[DetectorSpec, ...]
    subcarriers: int = 1
    near_far: str = "none"
    receiver: str = "single"
    trials: int = _DEFAULT_TRIALS
    seed: int = _DEFAULT_SEED
    sequence_mode: str = "fixed"
    subcarrier_sequences: str = "independent"
    count_all_users: bool = False
    require_convergent: bool = False
    output: str | None = None
    sweep_user: int = 0
    sweep_stages: tuple[int, ...] = (2, 3, 4, 5, 6)
    sweep_weights: tuple[float, float, float] = (0.0, 2.0, 0.01)

    def amplitudes(self) -> np.ndarray:
        """Per-user amplitudes; the desired user 0 always transmits at 1."""
        amps = np.ones(self.users)
        if self.near_far == "tenfold":
            amps[1::2] = 10.0
        return amps

    def sigma2(self) -> float:
        """Noise variance from the desired user's average SNR.

        SNR is defined as A^2/sigma2 single carrier and M A^2/sigma2 with M
        subcarriers (the combiner collects M unit-power fading branches).
        """
        snr_lin = 10.0 ** (self.snr_db / 10.0)
        return float(self.subcarriers) / snr_lin

    def weight_grid(self) -> np.ndarray:
        start, stop, step = self.sweep_weights
        return np.arange(start, stop + step / 2.0, step)


def _parse_bool(value: str, key: str) -> bool:
    low = value.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


def _parse_int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _parse_float(value: str, key: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ConfigError(f"{key}: must be finite, got {value!r}")
    return out


def _parse_stage_range(token: str, key: str) -> list[int]:
    if ".." in token:
        lo_s, _, hi_s = token.partition("..")
        lo, hi = _parse_int(lo_s, key), _parse_int(hi_s, key)
        if hi < lo:
            raise ConfigError(f"{key}: empty stage range {token!r}")
        return list(range(lo, hi + 1))
    return [_parse_int(token, key)]


def parse_detectors(value: str) -> tuple[DetectorSpec, ...]:
    """Expand a detector list like 'conventional:2..5, proposed:3, mmse'."""
    specs: set[DetectorSpec] = set()
    for entry in value.split(","):
        entry = entry.strip()
        if not entry:
            raise ConfigError("detectors: empty entry")
        kind, sep, stages = entry.partition(":")
        kind = kind.strip().lower()
        if kind not in FILTER_KINDS:
            raise ConfigError(
                f"detectors: unknown kind {kind!r} (choose from {', '.join(FILTER_KINDS)})"
            )
        if not sep:
            specs.add(DetectorSpec(kind, 1))
            continue
        if kind not in STAGED_KINDS:
            raise ConfigError(f"detectors: kind {kind!r} takes no stage")
        for stage in _parse_stage_range(stages.strip(), "detectors"):
            if stage < 1:
                raise ConfigError(f"detectors: stage must be >= 1, got {stage}")
            specs.add(DetectorSpec(kind, stage))
    if not specs:
        raise ConfigError("detectors: at least one detector required")
    return tuple(sorted(specs))


def _parse_sweep_weights(value: str) -> tuple[float, float, float]:
    parts = value.split(":")
    if len(parts) != 3:
        raise ConfigError("sweep_weights: expected start:stop:step")
    start, stop, step = (_parse_float(p, "sweep_weights") for p in parts)
    if step <= 0 or stop < start:
        raise ConfigError("sweep_weights: need step > 0 and stop >= start")
    return (start, stop, step)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a config file's contents."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value

    known = {
        "K", "P", "M", "snr_db", "detectors", "near_far", "receiver", "trials",
        "seed", "sequence_mode", "subcarrier_sequences", "count_all_users",
        "require_convergent", "output", "sweep_user", "sweep_stages", "sweep_weights",
    }
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(sorted(unknown))}")
    missing = {"K", "P", "snr_db", "detectors"} - set(raw)
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(sorted(missing))}")

    users = _parse_int(raw["K"], "K")
    chips = _parse_int(raw["P"], "P")
    subcarriers = _parse_int(raw.get("M", "1"), "M")
    if users < 1 or chips < 1 or subcarriers < 1:
        raise ConfigError("K, P and M must all be >= 1")

    near_far = raw.get("near_far", "none").lower()
    if near_far not in NEAR_FAR_PROFILES:
        raise ConfigError(f"near_far must be one of {NEAR_FAR_PROFILES}")
    receiver = raw.get("receiver", "single").lower()
    if receiver not in RECEIVERS:
        raise ConfigError(f"receiver must be one of {RECEIVERS}")
    if receiver == "single" and subcarriers != 1:
        raise ConfigError("receiver=single requires M=1 (use type1 or type2)")

    sequence_mode = raw.get("sequence_mode", "fixed").lower().replace("-", "_")
    if sequence_mode not in SEQUENCE_MODES:
        raise ConfigError(f"sequence_mode must be one of {SEQUENCE_MODES}")
    subcarrier_sequences = raw.get("subcarrier_sequences", "independent").lower()
    if subcarrier_sequences not in SUBCARRIER_MODES:
        raise ConfigError(f"subcarrier_sequences must be one of {SUBCARRIER_MODES}")

    trials = _parse_int(raw.get("trials", str(_DEFAULT_TRIALS)), "trials")
    if trials < 1:
        raise ConfigError("trials must be >= 1")

    require_convergent = _parse_bool(raw.get("require_convergent", "false"), "require_convergent")
    if require_convergent and sequence_mode != "fixed":
        raise ConfigError("require_convergent needs sequence_mode=fixed")

    detectors = parse_detectors(raw["detectors"])
    for spec in detectors:
        if spec.kind in ("mmse_converging", "modified_mmse") and spec.stage > users:
            raise ConfigError(
                f"detectors: {spec.kind} stage {spec.stage} exceeds K={users} "
                "(the schedule has only K stages)"
            )
        if receiver == "type2" and spec.kind not in TYPE2_KINDS:
            raise ConfigError(
                f"detectors: {spec.kind} has no combined-domain form; "
                f"receiver=type2 supports {', '.join(TYPE2_KINDS)}"
            )

    flat: set[int] = set()
    for token in raw.get("sweep_stages", "2..6").split(","):
        flat.update(_parse_stage_range(token.strip(), "sweep_stages"))
    sweep_stages = tuple(sorted(flat))
    if any(s < 2 for s in sweep_stages):
        raise ConfigError("sweep_stages: weight sweeps start at stage 2")

    sweep_user = _parse_int(raw.get("sweep_user", "0"), "sweep_user")
    if not 0 <= sweep_user < users:
        raise ConfigError(f"sweep_user {sweep_user} out of range for K={users}")

    return ExperimentConfig(
        users=users,
        chips=chips,
        snr_db=_parse_float(raw["snr_db"], "snr_db"),
        detectors=detectors,
        subcarriers=subcarriers,
        near_far=near_far,
        receiver=receiver,
        trials=trials,
        seed=_parse_int(raw.get("seed", str(_DEFAULT_SEED)), "seed"),
        sequence_mode=sequence_mode,
        subcarrier_sequences=subcarrier_sequences,
        count_all_users=_parse_bool(raw.get("count_all_users", "false"), "count_all_users"),
        require_convergent=require_convergent,
        output=raw.get("output"),
        sweep_user=sweep_user,
        sweep_stages=sweep_stages,
        sweep_weights=_parse_sweep_weights(raw.get("sweep_weights", "0:2:0.01")),
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
