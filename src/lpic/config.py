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

from dataclasses import MISSING, dataclass, fields
import math

import numpy as np

from .filters import FILTER_KINDS, STAGED_KINDS

NEAR_FAR_PROFILES = ("none", "tenfold")
RECEIVERS = ("single", "type1", "type2")
SEQUENCE_MODES = ("fixed", "per_trial")
SUBCARRIER_MODES = ("independent", "identical")
# filter kinds with a combined-domain (receiver=type2) form
TYPE2_KINDS = ("mf", "conventional", "proposed", "decorrelator", "mmse")


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
    trials: int = 100_000
    seed: int = 1
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


def _parse_stage_list(value: str, key: str) -> tuple[int, ...]:
    flat: set[int] = set()
    for token in value.split(","):
        flat.update(_parse_stage_range(token.strip(), key))
    return tuple(sorted(flat))


def _parse_sweep_weights(value: str, key: str) -> tuple[float, float, float]:
    parts = value.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{key}: expected start:stop:step")
    start, stop, step = (_parse_float(p, key) for p in parts)
    if step <= 0 or stop < start:
        raise ConfigError(f"{key}: need step > 0 and stop >= start")
    return (start, stop, step)


def _choice(options: tuple[str, ...]):
    """Parser for a key that takes one of `options`; case-blind, `-` read as `_`."""
    def parse(value: str, key: str) -> str:
        out = value.lower().replace("-", "_")
        if out not in options:
            raise ConfigError(f"{key} must be one of {options}")
        return out
    return parse


# config key -> (ExperimentConfig field, parser(value, key)).  A key left out
# of the file takes the field's default; a field without one is required.
_KEYS = {
    "K": ("users", _parse_int),
    "P": ("chips", _parse_int),
    "snr_db": ("snr_db", _parse_float),
    "detectors": ("detectors", lambda value, key: parse_detectors(value)),
    "M": ("subcarriers", _parse_int),
    "receiver": ("receiver", _choice(RECEIVERS)),
    "near_far": ("near_far", _choice(NEAR_FAR_PROFILES)),
    "trials": ("trials", _parse_int),
    "seed": ("seed", _parse_int),
    "sequence_mode": ("sequence_mode", _choice(SEQUENCE_MODES)),
    "subcarrier_sequences": ("subcarrier_sequences", _choice(SUBCARRIER_MODES)),
    "count_all_users": ("count_all_users", _parse_bool),
    "require_convergent": ("require_convergent", _parse_bool),
    "output": ("output", lambda value, key: value),
    "sweep_user": ("sweep_user", _parse_int),
    "sweep_stages": ("sweep_stages", _parse_stage_list),
    "sweep_weights": ("sweep_weights", _parse_sweep_weights),
}


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

    unknown = raw.keys() - _KEYS
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(sorted(unknown))}")
    required = {f.name for f in fields(ExperimentConfig) if f.default is MISSING}
    missing = [key for key, (name, _) in _KEYS.items() if name in required and key not in raw]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(sorted(missing))}")

    cfg = ExperimentConfig(
        **{name: parse(raw[key], key) for key, (name, parse) in _KEYS.items() if key in raw}
    )
    if min(cfg.users, cfg.chips, cfg.subcarriers) < 1:
        raise ConfigError("K, P and M must all be >= 1")
    if cfg.receiver == "single" and cfg.subcarriers != 1:
        raise ConfigError("receiver=single requires M=1 (use type1 or type2)")
    if cfg.trials < 1:
        raise ConfigError("trials must be >= 1")
    if cfg.require_convergent and cfg.sequence_mode != "fixed":
        raise ConfigError("require_convergent needs sequence_mode=fixed")
    for spec in cfg.detectors:
        if spec.kind in ("mmse_converging", "modified_mmse") and spec.stage > cfg.users:
            raise ConfigError(
                f"detectors: {spec.kind} stage {spec.stage} exceeds K={cfg.users} "
                "(the schedule has only K stages)"
            )
        if cfg.receiver == "type2" and spec.kind not in TYPE2_KINDS:
            raise ConfigError(
                f"detectors: {spec.kind} has no combined-domain form; "
                f"receiver=type2 supports {', '.join(TYPE2_KINDS)}"
            )
    if any(s < 2 for s in cfg.sweep_stages):
        raise ConfigError("sweep_stages: weight sweeps start at stage 2")
    if not 0 <= cfg.sweep_user < cfg.users:
        raise ConfigError(f"sweep_user {cfg.sweep_user} out of range for K={cfg.users}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    try:
        sigma2 = cfg.sigma2()
    except (OverflowError, ZeroDivisionError):
        sigma2 = math.nan
    if not 0.0 < sigma2 < math.inf:
        raise ConfigError(
            f"snr_db: {cfg.snr_db} gives no finite, positive noise variance M / 10^(snr_db/10)"
        )
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
