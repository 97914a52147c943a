"""Command-line interface: exit codes, file outputs, config precedence."""

import copy
import json
import os

import numpy as np
import pytest

import chemp.cli as cli_mod
from chemp import JointConfig, MpdConfig, SimConfig, build_sweep_code, write_alist
from chemp.cli import main


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


def test_no_arguments_prints_help_and_fails():
    assert main([]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "uncoded" in capsys.readouterr().out


def test_version_exits_zero(capsys):
    assert main(["--version"]) == 0


@pytest.mark.parametrize("sub", ["uncoded", "coded", "hardening", "mp-law",
                                 "exit", "convergence", "llr-mse", "opcount",
                                 "code-build"])
def test_subcommand_help(sub, capsys):
    assert main([sub, "--help"]) == 0
    capsys.readouterr()


def test_unknown_subcommand_fails():
    assert main(["frobnicate"]) == 1


def test_bad_flag_value_fails():
    assert main(["uncoded", "--n", "not-a-number"]) == 1


def test_uncoded_writes_curve_files(tmp_path):
    rc = run(tmp_path, "uncoded", "--n", "8", "--k", "4", "--snr", "6",
             "--target-errors", "5", "--max-trials", "50", "--seed", "1")
    assert rc == 0
    csv = tmp_path / "uncoded_mpd.csv"
    js = tmp_path / "uncoded_mpd.json"
    assert csv.exists() and js.exists()
    assert csv.read_text().startswith("snr_db,bits,errors,ber,ci_halfwidth")
    doc = json.loads(js.read_text())
    assert doc["receiver"] == "mpd"
    assert len(doc["points"]) == 1


def test_uncoded_snr_range_syntax(tmp_path):
    rc = run(tmp_path, "uncoded", "--n", "8", "--k", "4", "--snr", "0:8:4",
             "--target-errors", "5", "--max-trials", "30", "--seed", "1")
    assert rc == 0
    doc = json.loads((tmp_path / "uncoded_mpd.json").read_text())
    assert [p["snr_db"] for p in doc["points"]] == [0.0, 4.0, 8.0]


def test_uncoded_rejects_overloading(tmp_path):
    assert run(tmp_path, "uncoded", "--n", "4", "--k", "8") == 1


def test_coded_writes_curve_files(tmp_path):
    rc = run(tmp_path, "coded", "--n", "8", "--k", "8", "--snr", "7",
             "--code", "regular-3-6", "--block-length", "64",
             "--max-trials", "8", "--batch-size", "4", "--outer", "4",
             "--seed", "1")
    assert rc == 0
    doc = json.loads((tmp_path / "coded_joint.json").read_text())
    assert doc["points"][0]["frames"] == 8
    assert doc["provenance"]["code"]["n"] == 64


def test_coded_joint_aitken_needs_three_detector_passes(tmp_path):
    # the Aitken window spans three steps of one outer round
    rc = run(tmp_path, "coded", "--n", "8", "--k", "8", "--snr", "7",
             "--code", "regular-3-6", "--block-length", "64", "--aitken",
             "--detector-passes", "2")
    assert rc == 1
    assert not (tmp_path / "coded_joint.json").exists()


def test_hardening_output(tmp_path):
    rc = run(tmp_path, "hardening", "--n-list", "8,16", "--realizations", "20",
             "--seed", "2")
    assert rc == 0
    lines = (tmp_path / "hardening.csv").read_text().strip().split("\n")
    assert lines[0].startswith("n,k,")
    assert len(lines) == 3
    # off-diagonal leakage shrinks as the array grows
    rms = [float(row.split(",")[4]) for row in lines[1:]]
    assert rms[1] < rms[0]


def test_mp_law_output_with_distance_footer(tmp_path):
    rc = run(tmp_path, "mp-law", "--n", "64", "--seed", "3")
    assert rc == 0
    text = (tmp_path / "mp_law.csv").read_text()
    assert "# ks_distance=" in text
    ks = float(text.strip().split("ks_distance=")[1])
    assert 0.0 <= ks < 0.5


def test_exit_chart_output(tmp_path):
    rc = run(tmp_path, "exit", "--n", "16", "--k", "4", "--ia-grid", "0.1,0.8",
             "--channels", "6", "--uses", "4", "--seed", "4")
    assert rc == 0
    lines = (tmp_path / "exit.csv").read_text().strip().split("\n")
    assert lines[0] == "i_a,i_e,snr_db"
    assert len(lines) == 3


def test_convergence_output(tmp_path):
    rc = run(tmp_path, "convergence", "--n", "16", "--k", "8", "--trials", "10",
             "--seed", "5")
    assert rc == 0
    lines = (tmp_path / "convergence.csv").read_text().strip().split("\n")
    assert lines[0] == ("trial,iterations_to_tol,anti_dominance_fraction,"
                        "diagonal_dominance_fraction")
    # one row per trial, each of four scalar cells
    assert len(lines) == 11
    for t, row in enumerate(lines[1:]):
        trial, iters, anti, diag = row.split(",")
        assert int(trial) == t
        assert int(iters) == -1 or 1 <= int(iters) <= MpdConfig().iterations
        assert 0.0 <= float(anti) <= 1.0 and 0.0 <= float(diag) <= 1.0


def test_llr_mse_output(tmp_path):
    rc = run(tmp_path, "llr-mse", "--n", "16", "--k", "16", "--snr", "8,10",
             "--trials", "20", "--seed", "6")
    assert rc == 0
    lines = (tmp_path / "llr_mse.csv").read_text().strip().split("\n")
    assert lines[0] == "snr_db,mse_empirical,mse_bound"
    assert len(lines) == 3
    for row in lines[1:]:
        _, emp, bound = (float(v) for v in row.split(","))
        assert emp > 0 and bound > 0


def test_llr_mse_keys_streams_by_grid_position(tmp_path):
    # a negative SNR has a stream of its own, and a point's row does not
    # depend on the points after it
    argv = ("llr-mse", "--n", "8", "--k", "8", "--trials", "5", "--seed", "6")
    assert run(tmp_path / "neg", *argv, "--snr=-2,0") == 0
    assert run(tmp_path / "both", *argv, "--snr", "8,10") == 0
    assert run(tmp_path / "one", *argv, "--snr", "8") == 0
    both = (tmp_path / "both" / "llr_mse.csv").read_text().split("\n")
    one = (tmp_path / "one" / "llr_mse.csv").read_text().split("\n")
    assert both[1] == one[1]


@pytest.mark.parametrize("argv", [["hardening", "--n-list", "8", "--realizations"],
                                  ["convergence", "--n", "8", "--k", "4", "--trials"],
                                  ["llr-mse", "--n", "8", "--k", "4", "--snr", "8",
                                   "--trials"],
                                  ["exit", "--n", "8", "--k", "4", "--uses"]])
@pytest.mark.parametrize("count", ["0", "-3"])
def test_diagnostics_reject_counts_below_one(tmp_path, argv, count, capsys):
    assert run(tmp_path, *argv, count) == 1
    assert "error: need at least one" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_opcount_output(tmp_path, capsys):
    rc = run(tmp_path, "opcount", "--n", "128", "--k", "64")
    assert rc == 0
    out = capsys.readouterr().out
    assert "mpd" in out and "mmse" in out
    assert ("  mmse solve counted: 16 K^3 / 3 Cholesky of the regularized 2K-dim real Gram "
            "+ 16 K^2 triangular solves + 2 K regularization\n") in out
    # the complex K x K solve mmse_detect runs: 8 * 64^3 / 3 + 16 * 64^2 + 64
    assert ("  mmse solve as run : 8 K^3 / 3 Cholesky of the regularized K x K complex Gram "
            "+ 16 K^2 triangular solves + K regularization = 764,651 real ops, "
            "mmse 2,960,107 real ops\n") in out
    assert "  ratio mpd/mmse = 0.972  (solve as run: 1.201)\n" in out
    assert (tmp_path / "opcount.csv").exists()


@pytest.mark.parametrize("n,k", [("0", "0"), ("-3", "2"), ("4", "8")])
def test_opcount_rejects_sizes_no_receiver_runs(tmp_path, capsys, n, k):
    assert run(tmp_path, "opcount", "--n", n, "--k", k) == 1
    captured = capsys.readouterr()
    assert f"error: need 1 <= K <= N, got N={n}, K={k}" in captured.err
    assert not captured.out


@pytest.mark.parametrize("grid", ["2", "-0.5", "0.2,nan"])
def test_exit_rejects_prior_information_outside_unit_interval(tmp_path, capsys, grid):
    assert run(tmp_path, "exit", "--n", "8", "--k", "4", f"--ia-grid={grid}",
               "--channels", "2", "--uses", "2") == 1
    assert "error: prior information must lie in [0, 1]" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_code_build_writes_alist(tmp_path, capsys):
    rc = run(tmp_path, "code-build", "--code", "regular-3-6",
             "--block-length", "128", "--seed", "7")
    assert rc == 0
    assert "4-cycles" in capsys.readouterr().out
    path = tmp_path / "regular-3-6_n128.alist"
    assert path.read_text().split("\n")[:2] == ["128 64", "3 6"]


def test_code_build_exports_the_code_a_coded_sweep_simulates(tmp_path):
    assert run(tmp_path, "code-build", "--code", "n128-alpha1",
               "--block-length", "96", "--seed", "5") == 0
    cfg = SimConfig(n_antennas=8, n_users=8, receiver="joint", code_spec="n128-alpha1",
                    block_length=96, seed=5)
    write_alist(build_sweep_code(cfg), str(tmp_path / "sweep.alist"))
    assert ((tmp_path / "n128-alpha1_n96.alist").read_text()
            == (tmp_path / "sweep.alist").read_text())


def test_code_build_rejects_bad_spec(tmp_path):
    assert run(tmp_path, "code-build", "--code", "fancy") == 1


def test_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("CHEMP_SEED", "9")
    args = ["uncoded", "--n", "8", "--k", "4", "--snr", "6",
            "--target-errors", "5", "--max-trials", "30"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    d1.mkdir(), d2.mkdir()
    assert main([*args, "--out", str(d1)]) == 0
    assert main([*args, "--out", str(d2)]) == 0
    j1 = json.loads((d1 / "uncoded_mpd.json").read_text())
    j2 = json.loads((d2 / "uncoded_mpd.json").read_text())
    assert j1 == j2
    assert j1["provenance"]["seed"] == 9


def test_explicit_seed_overrides_env(tmp_path, monkeypatch):
    monkeypatch.setenv("CHEMP_SEED", "9")
    rc = run(tmp_path, "uncoded", "--n", "8", "--k", "4", "--snr", "6",
             "--target-errors", "5", "--max-trials", "30", "--seed", "11")
    assert rc == 0
    doc = json.loads((tmp_path / "uncoded_mpd.json").read_text())
    assert doc["provenance"]["seed"] == 11


def test_config_file_supplies_values(tmp_path):
    cfg = {"n_antennas": 8, "n_users": 2, "snr_db": [5.0],
           "target_errors": 5, "max_trials": 30, "seed": 13}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = run(tmp_path, "uncoded", "--config", str(cfg_path))
    assert rc == 0
    doc = json.loads((tmp_path / "uncoded_mpd.json").read_text())
    assert doc["provenance"]["config"]["n_users"] == 2
    assert doc["points"][0]["snr_db"] == 5.0


def test_explicit_flag_overrides_config(tmp_path):
    cfg = {"n_antennas": 8, "n_users": 2, "snr_db": [5.0],
           "target_errors": 5, "max_trials": 30, "seed": 13}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = run(tmp_path, "uncoded", "--config", str(cfg_path), "--k", "4")
    assert rc == 0
    doc = json.loads((tmp_path / "uncoded_mpd.json").read_text())
    assert doc["provenance"]["config"]["n_users"] == 4


def test_missing_config_file_fails(tmp_path):
    assert run(tmp_path, "uncoded", "--config", str(tmp_path / "nope.json")) == 1


def test_malformed_config_fails(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(tmp_path, "uncoded", "--config", str(bad)) == 1


def test_unknown_config_key_fails(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_antennas": 8, "n_users": 4,
                                    "turbo_mode": True}))
    assert run(tmp_path, "uncoded", "--config", str(cfg_path)) == 1


@pytest.mark.parametrize("removed", [{"symbol_energy": 2.0},
                                     {"mpd": {"convergence_tol": 1e-3}},
                                     {"mpd": {"llr_clip": 50.0}},
                                     {"mpd": {"track_history": True}}])
def test_removed_config_key_fails(tmp_path, removed):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_antennas": 8, "n_users": 4, **removed}))
    assert run(tmp_path, "uncoded", "--config", str(cfg_path)) == 1


def test_coded_csi_key_fails(tmp_path, capsys):
    # channel knowledge is named by the receiver ("joint-estimated"), not set apart
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_antennas": 8, "n_users": 4, "csi": "estimated"}))
    assert run(tmp_path, "coded", "--config", str(cfg_path)) == 1
    assert "'csi'" in capsys.readouterr().err


@pytest.mark.parametrize("command,receiver", [("coded", "joint-estimated"),
                                              ("uncoded", "mmse")])
def test_frame_length_without_its_receiver_fails(tmp_path, capsys, command, receiver):
    # only the uncoded -estimated receivers read frame_length
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_antennas": 8, "n_users": 4, "receiver": receiver,
                                    "frame_length": 12}))
    assert run(tmp_path, command, "--config", str(cfg_path)) == 1
    assert "frame_length" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["uncoded", "coded"])
@pytest.mark.parametrize("snr", ["nan", "inf", "-inf"])
def test_non_finite_snr_is_config_error(tmp_path, monkeypatch, capsys, command, snr):
    seen = capture_sweeps(monkeypatch)
    assert run(tmp_path, command, "--n", "8", "--k", "4", f"--snr={snr},6") == 1
    assert "finite" in capsys.readouterr().err
    assert not seen


def test_internal_error_maps_to_two(tmp_path, monkeypatch):
    def boom(cfg, workers=1):
        raise RuntimeError("disk on fire")

    monkeypatch.setattr(cli_mod, "run_uncoded_sweep", boom)
    rc = run(tmp_path, "uncoded", "--n", "8", "--k", "4")
    assert rc == 2


def capture_sweeps(monkeypatch) -> list:
    """Record the SimConfig each sweep would run, and run none."""
    seen = []
    for name in ("run_uncoded_sweep", "run_coded_sweep"):
        monkeypatch.setattr(cli_mod, name, lambda cfg, workers=1: seen.append(cfg))
    monkeypatch.setattr(cli_mod, "_write_curve", lambda *a: None)
    return seen


def sim_config(doc: dict) -> SimConfig:
    return SimConfig(**dict(doc, mpd=MpdConfig(**doc.get("mpd", {})),
                            joint=JointConfig(**doc.get("joint", {}))))


# config files that set every field a sweep flag sets, each to a value that is
# neither the subcommand's default nor the flag's value below
SWEEP_FILES = {
    "uncoded": {"n_antennas": 8, "n_users": 4, "snr_db": [5.0], "receiver": "mmse-estimated",
                "target_errors": 5, "max_trials": 30, "batch_size": 10,
                "frame_length": 20, "seed": 13,
                "mpd": {"iterations": 7, "damping": 0.5, "aitken": False}},
    "coded": {"n_antennas": 8, "n_users": 4, "snr_db": [5.0], "receiver": "separate",
              "code_spec": "regular-3-6", "block_length": 64, "decoder_iterations": 10,
              "target_errors": 5, "max_trials": 8, "batch_size": 4,
              "seed": 13, "mpd": {"iterations": 7, "damping": 0.5, "aitken": False},
              "joint": {"outer_iterations": 3, "detector_passes": 3, "decoder_passes": 1}},
}
# (flag, a unique prefix of it or None, dest, argument or None, value it sets)
SHARED_FLAGS = [
    ("--n", None, "n_antennas", "12", 12),
    ("--k", None, "n_users", "6", 6),
    ("--snr", "--sn", "snr_db", "7", (7.0,)),
    ("--iters", "--it", "mpd.iterations", "9", 9),
    ("--damping", "--dam", "mpd.damping", "0.2", 0.2),
    ("--aitken", "--ait", "mpd.aitken", None, True),
    ("--target-errors", "--target", "target_errors", "7", 7),
    ("--max-trials", "--max", "max_trials", "40", 40),
    ("--batch-size", "--batch", "batch_size", "20", 20),
    ("--seed", "--se", "seed", "11", 11),
]
SWEEP_FLAGS = {
    "uncoded": SHARED_FLAGS + [
        ("--receiver", "--rec", "receiver", "chemp-estimated", "chemp-estimated"),
        ("--frame-length", "--frame", "frame_length", "24", 24),
    ],
    "coded": SHARED_FLAGS + [
        ("--receiver", "--rec", "receiver", "joint-estimated", "joint-estimated"),
        ("--code", "--cod", "code_spec", "regular-4-8", "regular-4-8"),
        ("--block-length", "--bl", "block_length", "96", 96),
        ("--outer", "--oute", "joint.outer_iterations", "5", 5),
        ("--detector-passes", "--det", "joint.detector_passes", "4", 4),
        ("--decoder-passes", "--decoder-p", "joint.decoder_passes", "2", 2),
        ("--decoder-iters", "--decoder-i", "decoder_iterations", "20", 20),
    ],
}
SWEEP_CASES = [pytest.param(command, None, None, None, None, id=f"{command} no flag")
               for command in SWEEP_FLAGS]
for command, flags in SWEEP_FLAGS.items():
    for full, prefix, dest, text, value in flags:
        for name in filter(None, (full, prefix)):
            SWEEP_CASES.append(pytest.param(command, name, dest, text, value,
                                            id=f"{command} {name}"))


@pytest.mark.parametrize("command,name,dest,text,value", SWEEP_CASES)
def test_sweep_flag_layers_over_config_file(tmp_path, monkeypatch, command, name,
                                            dest, text, value):
    """An absent flag keeps the file's value; a flag given by its full name or
    a unique prefix wins; nested mpd/joint fields merge key by key."""
    seen = capture_sweeps(monkeypatch)
    doc = SWEEP_FILES[command]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    argv = [command, "--config", str(path)]
    want = copy.deepcopy(doc)
    if name is not None:
        argv += [name] if text is None else [name, text]
        group, _, field = dest.rpartition(".")
        (want[group] if group else want)[field] = value
    assert main(argv) == 0
    assert seen == [sim_config(want)]


@pytest.mark.parametrize("argv", [[sub, "--config", "cfg.json"] for sub in (
    "hardening", "mp-law", "exit", "convergence", "llr-mse", "opcount", "code-build")]
    + [["opcount", "--seed", "1"]], ids=" ".join)
def test_removed_options_fail(argv):
    assert main(argv) == 1


def test_non_integer_seed_env_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CHEMP_SEED", "abc")
    seen = capture_sweeps(monkeypatch)
    assert main(["uncoded", "--help"]) == 0
    capsys.readouterr()
    assert run(tmp_path, "hardening", "--n-list", "8", "--realizations", "2") == 1
    assert "CHEMP_SEED" in capsys.readouterr().err
    assert main(["uncoded", "--n", "8", "--k", "4"]) == 1
    assert not seen
    # a run that takes its seed from the flag does not read the variable
    assert main(["uncoded", "--n", "8", "--k", "4", "--seed", "3"]) == 0
    assert seen[0].seed == 3
