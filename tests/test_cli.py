"""The `sinr-sweep`, `filter-dump` and `analyze-equicorr` subcommands.

Each output is pinned byte for byte against a literal header and the library
call the subcommand wraps, formatted the way the CSV contract states: floats
at 17 significant digits (so they round-trip), everything else as `str`.
The `ber` subcommand is checked in test_simulate.py; here only that one
process's calls share nothing but the parser.
"""

import numpy as np

from lpic import cli
from lpic.config import parse_config
from lpic.filters import build_filter
from lpic.model import equicorrelated_matrix
from lpic.simulate import run_sinr_experiment
from lpic.sinr import compute_weight_schedule, equicorr_sir_report

SWEEP = (
    "K = 4\nP = 16\nsnr_db = 8\nseed = 3\ndetectors = mf\n"
    "sweep_user = 1\nsweep_stages = 2, 4\nsweep_weights = 0:1:0.25\n"
)


def _rows(matrix):
    return "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in matrix)


def test_sinr_sweep(tmp_path, capsys):
    (tmp_path / "sweep.cfg").write_text(SWEEP)
    assert cli.main(["sinr-sweep", str(tmp_path / "sweep.cfg")]) == 0
    points = run_sinr_experiment(parse_config(SWEEP))
    assert len(points) == 10
    want = "user,stage,weight,sinr_db\n" + "".join(
        f"{p.user},{p.stage},{p.weight:.17g},{p.sinr_db:.17g}\n" for p in points
    )
    assert capsys.readouterr().out == want
    out = tmp_path / "sinr.csv"
    assert cli.main(["sinr-sweep", str(tmp_path / "sweep.cfg"), "--output", str(out)]) == 0
    assert out.read_bytes() == want.encode("utf-8")


def test_filter_dump(capsys):
    r = equicorrelated_matrix(4, 0.1)
    assert cli.main(["filter-dump", "--kind", "proposed", "--K", "4", "--rho", "0.1",
                     "--stage", "3"]) == 0
    assert capsys.readouterr().out == _rows(build_filter("proposed", r, 3))
    assert cli.main(["filter-dump", "--kind", "mmse", "--K", "4", "--rho", "0.1",
                     "--sigma2", "0.5"]) == 0
    assert capsys.readouterr().out == _rows(build_filter("mmse", r, 1, sigma2=0.5))


def test_filter_dump_weighted_takes_the_optimal_schedule(capsys):
    r = equicorrelated_matrix(3, 0.2)
    assert cli.main(["filter-dump", "--kind", "weighted_proposed", "--K", "3", "--rho", "0.2",
                     "--stage", "3", "--sigma2", "0.1"]) == 0
    schedule, _degenerate = compute_weight_schedule(r, np.ones(3), 0.1, 3)
    want = build_filter("weighted_proposed", r, 3, sigma2=0.1, schedule=schedule)
    assert capsys.readouterr().out == _rows(want)


def test_filter_dump_weighted_needs_sigma2(capsys):
    argv = ["filter-dump", "--kind", "weighted_proposed", "--K", "3", "--rho", "0.2",
            "--stage", "3"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: weighted_proposed needs --sigma2 (for the optimal schedule)\n"


def test_analyze_equicorr(tmp_path, capsys):
    assert cli.main(["analyze-equicorr", "--K", "3", "--rho", "0.2"]) == 0
    rep = equicorr_sir_report(3, 0.2)
    want = (
        "users,rho,sir_conventional,sir_proposed,sir_gain,converges\n"
        f"3,0.20000000000000001,{rep.sir_conventional:.17g},{rep.sir_proposed:.17g},"
        f"{rep.sir_gain:.17g},True\n"
    )
    assert capsys.readouterr().out == want
    out = tmp_path / "sir.csv"
    assert cli.main(["analyze-equicorr", "--K", "6", "--rho", "0.3", "--output", str(out)]) == 0
    assert out.read_text().endswith(",False\n")


def test_ber_options_do_not_carry_over(tmp_path, capsys):
    # the parser is built once per process: each call parses its own options
    cfg, out = tmp_path / "run.cfg", tmp_path / "out.csv"
    cfg.write_text("K = 3\nP = 8\nsnr_db = 6\ntrials = 40\nseed = 2\ndetectors = mf\n")
    assert cli.main(["ber", str(cfg), "--verbose", "--output", str(out)]) == 0
    first = capsys.readouterr()
    assert first.out == "" and first.err.startswith("mf stage 1: ber=")
    assert cli.main(["ber", str(cfg)]) == 0
    second = capsys.readouterr()
    assert second.err == "" and second.out.encode("utf-8") == out.read_bytes()
