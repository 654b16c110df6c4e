"""Config file parsing and validation."""

import re
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from lpic.config import (
    _KEYS,
    ConfigError,
    DetectorSpec,
    ExperimentConfig,
    load_config,
    parse_config,
    parse_detectors,
)

README = Path(__file__).resolve().parent.parent / "README.md"

MINIMAL = """
K = 4
P = 16
snr_db = 10
detectors = mf
"""


class TestDetectorParsing:
    def test_forms(self):
        specs = parse_detectors("conventional:2..4, proposed:3, mf, decorrelator")
        assert specs == (
            DetectorSpec("conventional", 2),
            DetectorSpec("conventional", 3),
            DetectorSpec("conventional", 4),
            DetectorSpec("decorrelator", 1),
            DetectorSpec("mf", 1),
            DetectorSpec("proposed", 3),
        )

    def test_duplicates_collapse(self):
        specs = parse_detectors("proposed:3, proposed:2..3")
        assert specs == (DetectorSpec("proposed", 2), DetectorSpec("proposed", 3))

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown kind"):
            parse_detectors("sic:2")

    def test_stageless_kind_rejects_stage(self):
        with pytest.raises(ConfigError, match="takes no stage"):
            parse_detectors("decorrelator:2")
        with pytest.raises(ConfigError, match="takes no stage"):
            parse_detectors("mmse:3")

    def test_bad_ranges(self):
        with pytest.raises(ConfigError):
            parse_detectors("conventional:5..2")
        with pytest.raises(ConfigError):
            parse_detectors("conventional:0")
        with pytest.raises(ConfigError):
            parse_detectors("")
        with pytest.raises(ConfigError):
            parse_detectors("conventional:x")


class TestParseConfig:
    def test_minimal(self):
        cfg = parse_config(MINIMAL)
        assert cfg.users == 4 and cfg.chips == 16
        assert cfg.snr_db == 10.0
        assert cfg.detectors == (DetectorSpec("mf", 1),)
        assert cfg.subcarriers == 1
        assert cfg.trials == 100_000
        assert cfg.seed == 1
        assert cfg.sequence_mode == "fixed"

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# header\n\nK=2 # inline\nP = 8\nsnr_db=5\ndetectors=mf\n")
        assert cfg.users == 2 and cfg.chips == 8

    def test_full_field_coverage(self):
        cfg = parse_config(
            """
            K = 20
            P = 64
            M = 4
            snr_db = 14
            detectors = conventional:4
            near_far = tenfold
            receiver = type2
            trials = 5000
            seed = 7
            sequence_mode = fixed
            subcarrier_sequences = independent
            count_all_users = true
            require_convergent = false
            output = out.csv
            """
        )
        assert cfg.subcarriers == 4
        assert cfg.receiver == "type2"
        assert cfg.near_far == "tenfold"
        assert cfg.count_all_users is True
        assert cfg.output == "out.csv"

    def test_error_cases(self):
        base = "K=4\nP=16\nsnr_db=10\ndetectors=mf\n"
        for extra, pattern in [
            ("K=5\n", "duplicate"),
            ("mystery=1\n", "unknown keys"),
            ("trials=0\n", "trials"),
            ("near_far=strong\n", "near_far"),
            ("receiver=rake\n", "receiver"),
            ("M=2\n", "receiver=single"),
            ("sequence_mode=per_trial\nrequire_convergent=yes\n", "require_convergent"),
            ("sweep_user=9\n", "sweep_user"),
            ("sweep_stages=1..3\n", "sweep_stages"),
            ("sweep_weights=0:2\n", "sweep_weights"),
            ("sweep_weights=2:0:0.1\n", "sweep_weights"),
            ("seed=-1\n", "seed"),
        ]:
            with pytest.raises(ConfigError, match=pattern):
                parse_config(base + extra)
        with pytest.raises(ConfigError, match="finite"):
            parse_config("K=4\nP=16\nsnr_db=inf\ndetectors=mf\n")
        # 10^(snr_db/10) overflows, underflows to 0, or is so small that M over it overflows
        for snr_db in ("4000", "-4000", "-3085"):
            with pytest.raises(ConfigError, match="snr_db"):
                parse_config(f"K=4\nP=16\nsnr_db={snr_db}\ndetectors=mf\n")
        parse_config("K=4\nP=16\nsnr_db=-3000\ndetectors=mf\nseed=0\n")
        with pytest.raises(ConfigError, match="missing required"):
            parse_config("K=4\nP=16\nsnr_db=10\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("K: 4\n")

    def test_mmse_stage_capped_at_user_count(self):
        text = "K=3\nP=16\nsnr_db=10\ndetectors=mmse_converging:4\n"
        with pytest.raises(ConfigError, match="exceeds K"):
            parse_config(text)
        parse_config("K=3\nP=16\nsnr_db=10\ndetectors=mmse_converging:3\n")

    def test_type2_kind_restriction(self):
        text = (
            "K=4\nP=16\nM=2\nsnr_db=10\nreceiver=type2\n"
            "detectors=weighted_proposed:3\n"
        )
        with pytest.raises(ConfigError, match="combined-domain"):
            parse_config(text)

    def test_load_config_roundtrip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(MINIMAL)
        assert load_config(str(path)) == parse_config(MINIMAL)


class TestDerivedQuantities:
    def test_amplitudes_profiles(self):
        cfg = parse_config(MINIMAL)
        assert np.array_equal(cfg.amplitudes(), np.ones(4))
        cfg_nf = parse_config(MINIMAL.replace("detectors = mf", "detectors = mf\nnear_far = tenfold"))
        assert np.array_equal(cfg_nf.amplitudes(), [1.0, 10.0, 1.0, 10.0])

    def test_sigma2_definition(self):
        # single carrier: sigma2 = 1/snr; with M subcarriers the total
        # collected branch power is M, so sigma2 = M/snr
        cfg = parse_config(MINIMAL)
        assert cfg.sigma2() == pytest.approx(0.1)
        cfg_mc = parse_config(
            "K=4\nP=16\nM=4\nsnr_db=10\nreceiver=type1\ndetectors=mf\n"
        )
        assert cfg_mc.sigma2() == pytest.approx(0.4)

    def test_weight_grid_endpoints(self):
        cfg = parse_config(MINIMAL + "sweep_weights = 0:2:0.5\n")
        assert np.allclose(cfg.weight_grid(), [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_sweep_stage_forms(self):
        cfg = parse_config(MINIMAL + "sweep_stages = 2..3, 5\n")
        assert cfg.sweep_stages == (2, 3, 5)


def test_readme_key_table_is_the_schema():
    """README's key table lists the config keys in order, with the field defaults."""
    section = README.read_text(encoding="utf-8").split("## Config files", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` +\| ([^|]*?) +\|", section, flags=re.MULTILINE)
    assert [key for key, _ in rows] == list(_KEYS)
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    for key, default in rows:
        name, parse = _KEYS[key]
        if default == "required":
            assert defaults[name] is MISSING, key
        elif default == "stdout":
            assert (key, defaults[name]) == ("output", None)
        else:
            assert parse(default.strip("`"), key) == defaults[name], key
