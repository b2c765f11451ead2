import json
import os
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import pytest
import scipy.constants

from qrelay import cli, detection, scenarios, stability
from qrelay.scenarios import ExperimentConfig


def run_cli(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_limits_table(capsys):
    code, out, err = run_cli(capsys, ["limits"])
    assert code == 0
    assert "1/3" in out and "2/3" in out and "5/6" in out
    assert "0.333333333" in out
    assert "0.833333333" in out


def test_validate_timing_sign_flips_with_receiver_spool(capsys):
    code, out, _ = run_cli(capsys, ["validate-timing"])
    assert code == 0
    slack = float(out.splitlines()[0].split()[1])
    assert slack > 0
    assert "trigger-first" in out

    code, out, _ = run_cli(capsys, ["validate-timing", "--bob-spool-m", "0"])
    assert code == 0
    slack0 = float(out.splitlines()[0].split()[1])
    assert slack0 < 0
    assert "photon-first" in out


def test_unknown_config_key_names_the_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("pair_mane = 0.07\n")
    code, _, err = run_cli(capsys, ["noise", "--config", str(cfg)])
    assert code == 2
    assert "pair_mane" in err


def test_malformed_line_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("pair_mean 0.07\n")
    code, _, err = run_cli(capsys, ["noise", "--config", str(cfg)])
    assert code == 2
    assert "key = value" in err


def test_conflicting_mean_keys_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("pair_mean = 0.13\npair_mean_alice = 0.19\n")
    code, _, err = run_cli(capsys, ["noise", "--config", str(cfg)])
    assert code == 2
    assert "pair_mean" in err


def test_bad_boolean_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("heralded = maybe\n")
    code, _, err = run_cli(capsys, ["noise", "--config", str(cfg)])
    assert code == 2
    assert "heralded" in err


def test_schema_violation_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("pair_mean = -2\n")
    code, _, err = run_cli(capsys, ["noise", "--config", str(cfg)])
    assert code == 2


def test_oversized_tail_exits_3(tmp_path, capsys):
    cfg = tmp_path / "hot.cfg"
    cfg.write_text("pair_mean = 0.9\n")
    code, _, err = run_cli(capsys, ["noise", "--config", str(cfg)])
    assert code == 3
    assert "tail" in err


def test_empty_config_runs_defaults(tmp_path, capsys):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    code, out, _ = run_cli(capsys, ["noise", "--config", str(cfg)])
    assert code == 0
    doc = json.loads(out)
    assert doc["config"] == asdict(ExperimentConfig())
    assert doc["blocking_probabilities"]["both"] > 0.0


def test_teleport_summary_fields(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pair_mean_epr = 0.07\n")
    out_csv = tmp_path / "fringe.csv"
    code, out, _ = run_cli(
        capsys,
        [
            "teleport",
            "--config",
            str(cfg),
            "--points",
            "12",
            "--periods",
            "1",
            "--out",
            str(out_csv),
        ],
    )
    assert code == 0
    doc = json.loads(out)
    for key in (
        "visibility_raw",
        "visibility_sigma",
        "fidelity_raw",
        "classification_raw",
        "acceptance_probability",
        "net",
        "config",
    ):
        assert key in doc
    assert doc["config"]["pair_mean_epr"] == 0.07
    assert doc["classification_raw"] in ("below_classical", "quantum", "above_cloning")
    header = out_csv.read_text().splitlines()[0]
    assert header == "phi_b_rad,counts,expected_prob"


def test_mandel_summary_and_csv(tmp_path, capsys):
    out_csv = tmp_path / "dip.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "pair_mean = 0.001\n"
        "eta_ge = 1.0\n"
        "eta_ingaas_bsa = 1.0\n"
        "dark_ge = 0\n"
        "dark_ingaas_bsa = 0\n"
        "dark_herald = 0\n"
        "dark_bob = 0\n"
    )
    code, out, _ = run_cli(
        capsys,
        ["mandel", "--config", str(cfg), "--points", "21", "--out", str(out_csv)],
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["visibility"] - 1.0 / 3.0) < 1e-6
    assert abs(doc["fwhm_um"] - 144.0) < 1e-3
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "delta_x_um,coinc_short,coinc_long"
    assert len(lines) == 22


IDEAL_CFG = (
    "ideal_single_pairs = true\n"
    "alice_encoder = lossless\n"
    "symmetric_bsa = true\n"
    "loss_bob_db = 0\n"
    "eta_ge = 1\neta_ingaas_bsa = 1\neta_herald = 1\neta_bob = 1\n"
    "dark_ge = 0\ndark_ingaas_bsa = 0\ndark_herald = 0\ndark_bob = 0\n"
)


def test_montecarlo_csv_reruns_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "ideal.cfg"
    cfg.write_text(IDEAL_CFG)
    args = [
        "teleport",
        "--config",
        str(cfg),
        "--points",
        "8",
        "--periods",
        "1",
        "--mode",
        "montecarlo",
        "--trials",
        "100000",
        "--seed",
        "21",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    code, out_a, _ = run_cli(capsys, args + ["--out", str(a)])
    assert code == 0
    code, out_b, _ = run_cli(capsys, args + ["--out", str(b)])
    assert code == 0
    assert a.read_bytes() == b.read_bytes()
    # the JSON summaries agree except for the csv path
    doc_a, doc_b = json.loads(out_a), json.loads(out_b)
    doc_a["csv"] = doc_b["csv"] = None
    assert doc_a == doc_b
    c = tmp_path / "c.csv"
    code, _, _ = run_cli(capsys, args[:-1] + ["22", "--out", str(c)])
    assert code == 0
    assert a.read_bytes() != c.read_bytes()


def test_zero_count_fringe_exits_3(capsys):
    # starved Monte-Carlo run: every point draws zero counts, so the
    # fringe fit cannot anchor an offset and the run reports a numeric
    # failure instead of inventing a visibility
    code, _, err = run_cli(
        capsys,
        ["teleport", "--points", "8", "--mode", "montecarlo", "--trials", "1000",
         "--seed", "5"],
    )
    assert code == 3
    assert "offset" in err


def test_stability_trace_and_summary(tmp_path, capsys):
    out_csv = tmp_path / "trace.csv"
    code, out, _ = run_cli(
        capsys,
        ["stability", "--duration-h", "2", "--dt-s", "120", "--out", str(out_csv)],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["controlled"]
    assert doc["held_within_tenth"]
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "t,delta_x_um,rep_rate_hz,motor_um,norm_coincidences"
    assert len(lines) == 62


def test_stability_uncontrolled_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        ["stability", "--no-controller", "--duration-h", "6", "--dt-s", "300"],
    )
    assert code == 0
    doc = json.loads(out)
    assert not doc["controlled"]
    assert doc["peak"] >= 0.95


def test_huge_gain_runs_without_overflow_warning(capsys):
    # the motor overshoots by about 1e301 um: far past the dip, where
    # exp(-inf) = 0 is the right coincidence limit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_cli(capsys, ["stability", "--gain", "1e300", "--duration-h", "1"])
    assert code == 0
    assert json.loads(out)["peak"] == 1.0


def test_one_engine_per_command(monkeypatch, capsys):
    built = []
    original = scenarios.TeleportEngine.__init__

    def counting_init(self, config):
        built.append(config)
        original(self, config)

    monkeypatch.setattr(scenarios.TeleportEngine, "__init__", counting_init)
    code, _, _ = run_cli(capsys, ["teleport", "--points", "8"])
    assert code == 0
    assert len(built) == 1
    code, _, _ = run_cli(capsys, ["noise"])
    assert code == 0
    assert len(built) == 2


@pytest.mark.parametrize(
    "argv, target, passes",
    [
        (["teleport", "--points", "8"], "teleport_clicks", 1),
        (["teleport", "--points", "8", "--heralded"], "teleport_clicks", 1),
        (["noise"], "teleport_clicks", 1),
        (["mandel", "--points", "9"], "coincidence_probability", 3),
    ],
    ids=["teleport", "heralded", "noise", "mandel"],
)
def test_detection_passes_per_command(monkeypatch, capsys, argv, target, passes):
    # one detection pass gives the fringe's phase harmonics, which also
    # serve the acceptance and every blocking run; the default config has
    # degree D = 2, and the dip takes D+1 nodes
    real = getattr(scenarios, target)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(scenarios, target, counting)
    code, _, _ = run_cli(capsys, argv)
    assert code == 0
    assert len(calls) == passes


def test_seed_beyond_64_bits_exits_2(capsys):
    code, _, err = run_cli(
        capsys,
        ["teleport", "--points", "8", "--mode", "montecarlo", "--seed", str(2**64)],
    )
    assert code == 2
    assert "seed" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["teleport", "--points", "8", "--out", "{missing}"],
        ["noise", "--out", "{missing}"],
        ["mandel", "--span-um", "0"],
        ["validate-timing", "--group-index", "-1"],
        ["validate-timing", "--latency-ns", "-500"],
        ["teleport", "--periods", "nan"],
        ["stability", "--gain", "nan"],
        ["stability", "--amplitude-k", "nan"],
        ["stability", "--dt-s", "nan"],
        ["stability", "--duration-h", "nan"],
        ["stability", "--period-h", "nan"],
        ["stability", "--gain", "inf"],
        ["stability", "--amplitude-k", "inf"],
        ["stability", "--duration-h", "inf"],
        ["stability", "--period-h", "inf"],
        ["stability", "--duration-h", "0.5", "--dt-s", "1e-9"],
        ["stability", "--seed", str(2**64)],
        ["stability", "--seed", "-1"],
        ["stability", "--gain", "1e308"],
        ["validate-timing", "--group-index", "inf"],
        ["validate-timing", "--quantum-fiber-m", "inf"],
        ["teleport", "--points", "10000000000000"],
        ["mandel", "--points", "10000000000000"],
    ],
    ids=[
        "teleport-out", "noise-out", "mandel-span", "group-index", "latency",
        "periods-nan", "gain-nan", "amplitude-nan", "dt-nan", "duration-nan",
        "period-nan", "gain-inf", "amplitude-inf", "duration-inf", "period-inf",
        "step-cap", "seed-2**64", "seed-negative", "gain-overflow", "group-index-inf",
        "fiber-inf", "teleport-point-cap", "mandel-point-cap",
    ],
)
def test_bad_input_exits_2_without_traceback(tmp_path, capsys, argv):
    missing = str(tmp_path / "no-such-dir" / "x.csv")
    code, out, err = run_cli(capsys, [a.format(missing=missing) for a in argv])
    assert code == 2
    assert "Traceback" not in err
    assert out == ""


def test_mandel_span_beyond_the_fit_range_exits_3(capsys):
    # the scan itself runs; the dip model overflows at its starting point
    code, out, err = run_cli(capsys, ["mandel", "--points", "5", "--span-um", "1e155"])
    assert code == 3
    assert "Traceback" not in err
    assert "not finite" in err
    assert out == ""


@pytest.mark.parametrize(
    "command, line",
    [
        ("teleport", "pair_mean = nan"),
        ("mandel", "pair_mean = nan"),
        ("teleport", "dip_fwhm_um = nan"),
        ("teleport", "phase_bob = inf"),
    ],
    ids=["teleport-pair-mean", "mandel-pair-mean", "dip-fwhm", "phase-bob"],
)
def test_non_finite_config_value_exits_2(tmp_path, capsys, command, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(capsys, [command, "--config", str(cfg)])
    assert code == 2
    assert "Traceback" not in err
    assert line.split()[0] in err
    assert out == ""


@pytest.mark.parametrize(
    "argv, line",
    [
        (["teleport", "--mode", "montecarlo", "--trials", "1" + "0" * 26, "--points", "6"], None),
        (["teleport", "--points", "6"], "pulses_per_point = 1" + "0" * 400),
        (["mandel", "--points", "5"], "pulses_per_point = 1" + "0" * 400),
        (["teleport", "--points", "6"], "trials = 1000000000000000001"),
    ],
    ids=["trials-flag", "teleport-pulses", "mandel-pulses", "trials-config"],
)
def test_oversized_count_exits_2(tmp_path, capsys, argv, line):
    if line is not None:
        cfg = tmp_path / "big.cfg"
        cfg.write_text(line + "\n")
        argv = argv + ["--config", str(cfg)]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert "Traceback" not in err
    assert "10**18" in err
    assert out == ""


def test_count_bound_is_inclusive():
    ExperimentConfig(trials=10**18, pulses_per_point=10**18)


@pytest.mark.parametrize(
    "line",
    ["n_max = 4", "max_bins = 3", "rep_rate_hz = 75e6", "bin_pitch_ns = 1.2"],
    ids=["n_max", "max_bins", "rep_rate_hz", "bin_pitch_ns"],
)
def test_config_may_not_name_n_max(tmp_path, capsys, line):
    # the truncation follows from the pair limit and the time bins from the
    # clock window; the pulse rate and bin pitch enter no simulated number
    cfg = tmp_path / "old.cfg"
    cfg.write_text(line + "\n")
    code, _, err = run_cli(capsys, ["noise", "--config", str(cfg)])
    assert code == 2
    assert line.split()[0] in err


# prints, as JSON, the scipy modules loaded after `import qrelay.cli`, after
# each command named in argv[1] (a JSON list of argv lists) has run, and
# after a dark-count calibration whose target needs a root search
_SCIPY_PROBE = """
import contextlib, io, json, sys
import qrelay.cli as cli
from qrelay.scenarios import ExperimentConfig, calibrate_dark_counts

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = [("import", 0, scipy_modules())]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    seen.append((" ".join(argv), code, scipy_modules()))
cfg = ExperimentConfig(pair_mean_alice=0.16, pair_mean_epr=0.04)
_, report = calibrate_dark_counts(cfg, target_ratio=3.0)
seen.append(("calibrate", int(report.clamped), scipy_modules()))
print(json.dumps(seen))
"""


def test_scipy_loads_only_where_a_solver_runs():
    commands = [
        ["teleport"],
        ["teleport", "--heralded"],
        ["noise"],
        ["stability"],
        ["validate-timing"],
        ["limits"],
        ["mandel"],
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, json.dumps(commands)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert [name for name, _, _ in seen] == ["import"] + [" ".join(a) for a in commands] + ["calibrate"]
    # every command exits 0, and the calibration searched rather than clamped
    assert all(code == 0 for _, code, _ in seen)
    for name, _, modules in seen[:-1]:
        assert modules == [], name
    # the calibration's root search is where scipy is needed
    assert "scipy.optimize" in seen[-1][2]


@pytest.mark.parametrize("line", ["pair_mean_alice = 0.0", "pair_mean_epr = 0.0"])
def test_flat_dip_scan_exits_0(tmp_path, capsys, line):
    # with one source dark the scan is flat, and the dip fit still ends
    cfg = tmp_path / "flat.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(capsys, ["mandel", "--config", str(cfg)])
    assert code == 0, err
    assert json.loads(out)["scenario"] == "mandel"


def test_speed_of_light_literal_is_scipys():
    assert detection._SPEED_OF_LIGHT == scipy.constants.c
    assert stability._SPEED_OF_LIGHT == scipy.constants.c
