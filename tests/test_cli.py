import json
import os
import subprocess
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from oracles import csv_text

from qrelay import cli, detection, scenarios, stability
from qrelay.errors import ConfigError, QRelayError
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
    cfg.write_text("pair_mean_alice 0.07\n")
    code, _, err = run_cli(capsys, ["noise", "--config", str(cfg)])
    assert code == 2
    assert "key = value" in err


def test_config_with_a_byte_order_mark_reads_as_without(tmp_path, capsys):
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_bytes(b"pair_mean_alice = 0.1\n")
    marked.write_bytes(b"\xef\xbb\xbfpair_mean_alice = 0.1\n")
    code, out, err = run_cli(capsys, ["noise", "--config", str(marked)])
    assert (code, err) == (0, "")
    assert json.loads(out)["config"]["pair_mean_alice"] == 0.1
    assert (code, out, err) == run_cli(capsys, ["noise", "--config", str(plain)])


@pytest.mark.parametrize("command", ["noise", "teleport", "mandel"])
def test_pair_mean_is_an_unknown_key(tmp_path, capsys, command):
    # each source's mean is its own key; equal means are set as both
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("pair_mean = 0.13\n")
    code, out, err = run_cli(capsys, [command, "--config", str(cfg)])
    assert (code, out) == (2, "")
    assert "unknown config key 'pair_mean'" in err


def test_bad_boolean_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("heralded = maybe\n")
    code, _, err = run_cli(capsys, ["noise", "--config", str(cfg)])
    assert code == 2
    assert "heralded" in err


def test_schema_violation_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("pair_mean_alice = -2\n")
    code, _, err = run_cli(capsys, ["noise", "--config", str(cfg)])
    assert code == 2


def test_two_errors_for_two_exit_codes():
    # bad input exits 2 and a numeric failure 3: no caller tells more apart
    assert QRelayError.__subclasses__() == [ConfigError]


def test_oversized_tail_exits_3(tmp_path, capsys):
    # the overflowing mean makes mu**n overflow: its tail must still come
    # out as 1, not NaN, and nothing may warn on the way; 0.21 is just past
    # the default tail_tol, and the message names a remedy a config can set
    cfg = tmp_path / "hot.cfg"
    for mean in ("0.21", "0.9", "1e300"):
        text = f"pair_mean_alice = {mean}\npair_mean_epr = {mean}\n"
        cfg.write_text(text)
        for command in ("teleport", "mandel", "noise"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, out, err = run_cli(capsys, [command, "--config", str(cfg)])
            assert code == 3, (text, command)
            assert [str(w.message) for w in caught] == []
            assert "tail_tol" in err
            assert "raise n_cut" not in err
            assert "nan" not in err
            assert out == ""


def test_empty_config_runs_defaults(tmp_path, capsys):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    code, out, _ = run_cli(capsys, ["noise", "--config", str(cfg)])
    assert code == 0
    doc = json.loads(out)
    assert doc["config"] == asdict(ExperimentConfig())
    assert doc["blocking_probabilities"]["both"] > 0.0


def test_config_block_prints_the_means_the_run_uses(tmp_path, capsys):
    cfg = tmp_path / "mean.cfg"
    cfg.write_text("pair_mean_alice = 0.13\npair_mean_epr = 0.13\n")
    code, out, _ = run_cli(capsys, ["noise", "--config", str(cfg)])
    assert code == 0
    printed = json.loads(out)["config"]
    assert "pair_mean" not in printed
    assert printed["pair_mean_alice"] == 0.13
    assert printed["pair_mean_epr"] == 0.13


def test_ideal_noise_prints_the_unblocked_run(tmp_path, capsys):
    # "none" is the config's own weighting, forced single pairs included
    cfg_file = tmp_path / "ideal.cfg"
    cfg_file.write_text("ideal_single_pairs = true\n")
    code, out, _ = run_cli(capsys, ["noise", "--config", str(cfg_file)])
    assert code == 0
    expected = scenarios.TeleportEngine(ExperimentConfig(ideal_single_pairs=True)).scan([0.0])[0]
    assert abs(json.loads(out)["blocking_probabilities"]["none"] - expected) <= 1e-12 * expected


def test_validate_timing_has_no_sender_spool(capsys):
    # the sender spool delays only the arrival synchronization, not Bob's gate
    with pytest.raises(SystemExit) as exc:
        cli.main(["validate-timing", "--alice-spool-m", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--alice-spool-m" in err
    assert "Traceback" not in err


def test_validate_timing_defaults_are_the_budget_own(capsys):
    # each flag defaults to its TimingBudget field; the latency in ns round-trips
    args = cli.build_parser().parse_args(["validate-timing"])
    assert args.latency_ns * 1e-9 == detection.TimingBudget.decision_latency_s
    code, out, _ = run_cli(capsys, ["validate-timing"])
    assert code == 0
    slack = detection.validate_timing(detection.TimingBudget())
    assert out.splitlines()[0] == f"slack_ns {slack * 1e9:.9g}"


def test_noise_takes_no_seed(capsys):
    # a noise run draws no counts, so a seed would change only the echo
    with pytest.raises(SystemExit) as exc:
        cli.main(["noise", "--seed", "5"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


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


def test_parser_is_built_once_and_leaks_no_flag(capsys):
    # one parser serves every call in a process; a flag set in one call
    # must not carry into the next
    assert cli.build_parser() is cli.build_parser()
    code, out, _ = run_cli(capsys, ["teleport", "--heralded"])
    assert code == 0 and json.loads(out)["config"]["heralded"] is True
    code, out, _ = run_cli(capsys, ["teleport"])
    assert code == 0 and json.loads(out)["config"]["heralded"] is False


def test_mandel_summary_and_csv(tmp_path, capsys):
    out_csv = tmp_path / "dip.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "pair_mean_alice = 0.001\n"
        "pair_mean_epr = 0.001\n"
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


@pytest.mark.parametrize("points, periods", [("5", "1e-9"), ("4", "1e-300"), ("5", "1e-7")])
def test_fringe_on_phases_rounding_cannot_tell_apart_exits_3(capsys, points, periods):
    # the phases are distinct, but the fit's normal matrix is singular, or
    # so badly conditioned (1.5e14 at 1e-7 periods) that its visibility is noise
    code, out, err = run_cli(capsys, ["teleport", "--points", points, "--periods", periods])
    assert code == 3
    assert "too close together" in err
    assert out == ""


def test_fringe_on_two_distinct_phases_names_both_counts(capsys):
    # over the default 2 periods, 4 points fall on 0, pi, 2 pi and 3 pi
    code, out, err = run_cli(capsys, ["teleport", "--points", "4"])
    assert (code, out) == (3, "")
    assert "got 4 points at 2 distinct phases" in err


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("mean", ["0", "1e-300"], ids=["pair_mean = 0", "pair_mean = 1e-300"])
def test_singular_dip_fit_prints_null_sigmas(tmp_path, capsys, mean):
    # no pairs, no dip: the fit's covariance is singular and its sigmas
    # are not numbers, which JSON cannot hold
    path = tmp_path / "flat.conf"
    path.write_text(f"pair_mean_alice = {mean}\npair_mean_epr = {mean}\n")
    code, out, _ = run_cli(capsys, ["mandel", "--config", str(path)])
    assert code == 0
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["visibility_sigma"] is None
    assert doc["fwhm_sigma_um"] is None
    assert doc["visibility"] == 0.0


@pytest.mark.parametrize(
    "config, argv, keys",
    [
        ("pair_mean_epr = 0\n", ["teleport"], ["net.visibility_net"]),
        ("pair_mean_alice = 0\nheralded = true\n", ["teleport"], ["net.visibility_net"]),
        ("pair_mean_alice = 0\npair_mean_epr = 0\n", ["teleport"], ["net.visibility_net"]),
        ("", ["mandel", "--mode", "montecarlo", "--seed", "3"],
         ["visibility_sigma", "fwhm_sigma_um"]),
    ],
    ids=["epr-off", "alice-off-heralded", "both-off", "montecarlo-dip-seed-3"],
)
def test_numbers_that_rounding_made_up_print_null(tmp_path, capsys, config, argv, keys):
    # with a source off the fringe's mean exceeds the blocked-run background
    # by rounding only, and the Monte-Carlo dip's covariance has negative
    # variances: neither is a number to print
    path = tmp_path / "run.conf"
    path.write_text(config)
    code, out, _ = run_cli(capsys, argv + ["--config", str(path)])
    assert code == 0
    doc = json.loads(out, parse_constant=_reject_constant)
    for key in keys:
        section, _, name = key.rpartition(".")
        assert (doc[section] if section else doc)[name] is None
    if argv == ["teleport"]:
        assert "only by rounding" in doc["net"]["note"]
        assert "classification_net" not in doc["net"]


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


def test_stability_table_spans_writer_blocks(tmp_path, capsys):
    # 8641 rows: two full blocks of the writer and a partial third
    out_csv = tmp_path / "trace.csv"
    code, _, _ = run_cli(capsys, ["stability", "--kind", "random-walk", "--duration-h", "12",
                                  "--dt-s", "5", "--seed", "4", "--out", str(out_csv)])
    assert code == 0
    trace = stability.simulate(stability.DriftModel(kind="random-walk"),
                               stability.DEFAULT_GAIN_UM_PER_HZ, 12 * 3600.0, 5.0, 4)
    columns = (trace.time_s, trace.delta_x_um, trace.rep_rate_hz, trace.motor_um,
               trace.norm_coincidences)
    assert len(trace.time_s) > 2 * cli._CSV_BLOCK
    header = ("t", "delta_x_um", "rep_rate_hz", "motor_um", "norm_coincidences")
    assert out_csv.read_bytes() == csv_text(header, zip(*(c.tolist() for c in columns))).encode()


def test_stability_uncontrolled_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        ["stability", "--no-controller", "--duration-h", "6", "--dt-s", "300"],
    )
    assert code == 0
    doc = json.loads(out)
    assert not doc["controlled"]
    assert doc["peak"] >= 0.95


def test_stability_prints_a_zero_mismatch_unsigned(monkeypatch, capsys):
    # a trace held at -0.0 prints its largest |delta_x| as 0.0, as abs() would
    real = cli.simulate

    def held_at_zero(*args, **kwargs):
        trace = real(*args, **kwargs)
        return replace(trace, delta_x_um=-np.zeros_like(trace.delta_x_um))

    monkeypatch.setattr(cli, "simulate", held_at_zero)
    code, out, _ = run_cli(capsys, ["stability", "--duration-h", "1"])
    assert code == 0
    assert '"max_mismatch_um": 0.0,' in out


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
        (["teleport", "--points", "8"], "teleport_tables", 1),
        (["teleport", "--points", "8", "--heralded"], "teleport_tables", 1),
        (["noise"], "teleport_tables", 1),
        (["mandel", "--points", "9"], "coincidence_clicks", 1),
    ],
    ids=["teleport", "heralded", "noise", "mandel"],
)
def test_detection_passes_per_command(monkeypatch, capsys, argv, target, passes):
    # one detection pass gives the fringe's phase harmonics, which also
    # serve the acceptance and every blocking run, and one gives the dip's
    # coefficients at every mismatch
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
        ["noise", "--config", "{not_utf8}"],
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
        ["stability", "--gain", "-0.1"],
        # 1.54 steps round up to 2, whose time is past the float range
        ["stability", "--duration-h", "4.7e304", "--dt-s", "1.1e308"],
        ["stability", "--kind", "random-walk", "--duration-h", "4.7e304", "--dt-s", "1.1e308"],
        ["validate-timing", "--group-index", "inf"],
        ["validate-timing", "--quantum-fiber-m", "inf"],
        ["validate-timing", "--quantum-fiber-m", "1e308", "--bob-spool-m", "1e308"],
        ["validate-timing", "--group-index", "1e308", "--quantum-fiber-m", "1e10",
         "--charlie-spool-m", "1e10"],
        ["validate-timing", "--group-index", "1e300", "--quantum-fiber-m", "1e8"],
        ["teleport", "--points", "10000000000000"],
        ["mandel", "--points", "10000000000000"],
        ["teleport", "--periods", "1e308"],
        ["teleport", "--periods=-7.2e14"],
        ["stability", "--no-controller", "--amplitude-k", "1e306"],
        ["stability", "--amplitude-k", "1e308"],
        ["validate-timing", "--group-index", "0.5"],
    ],
    ids=[
        "teleport-out", "noise-out", "config-not-utf8", "mandel-span", "group-index", "latency",
        "periods-nan", "gain-nan", "amplitude-nan", "dt-nan", "duration-nan",
        "period-nan", "gain-inf", "amplitude-inf", "duration-inf", "period-inf",
        "step-cap", "seed-2**64", "seed-negative", "gain-overflow", "gain-negative",
        "time-axis-overflow", "time-axis-overflow-walk", "group-index-inf",
        "fiber-inf", "slack-overflow", "slack-nan", "slack-ns-overflow", "teleport-point-cap", "mandel-point-cap", "periods-overflow",
        "periods-past-2**52", "drift-overflow", "drift-overflow-controlled",
        "group-index-below-1",
    ],
)
def test_bad_input_exits_2_without_traceback(tmp_path, capsys, argv):
    missing = str(tmp_path / "no-such-dir" / "x.csv")
    not_utf8 = tmp_path / "latin.cfg"
    not_utf8.write_bytes(b"\xff\xfe pair = 1\n")
    code, out, err = run_cli(
        capsys, [a.format(missing=missing, not_utf8=not_utf8) for a in argv])
    assert code == 2
    assert "Traceback" not in err
    assert out == ""


def test_negative_period_count_with_an_exponent_is_a_value(capsys):
    # argparse's own negative-number pattern has no exponent
    code, out, err = run_cli(capsys, ["teleport", "--points", "8", "--periods", "-1e1"])
    assert (code, err) == (0, "")
    assert (code, out, err) == run_cli(capsys, ["teleport", "--points", "8", "--periods=-1e1"])


def test_negative_span_with_an_exponent_reaches_the_span_check(capsys):
    code, out, err = run_cli(capsys, ["mandel", "--span-um", "-1e1"])
    assert code == 2
    assert "mismatch span must be finite and > 0" in err
    assert out == ""


def test_mandel_span_beyond_the_fit_range_exits_3(capsys):
    # the scan itself runs; the dip model overflows at its starting point
    code, out, err = run_cli(capsys, ["mandel", "--points", "5", "--span-um", "1e155"])
    assert code == 3
    assert "Traceback" not in err
    assert "not finite" in err
    assert out == ""


def test_mandel_span_overflowing_the_overlap_exits_3_without_warning(capsys):
    # (delta_x / ell)^2 overflows; the overlap is then 0 without a warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, ["mandel", "--points", "5", "--span-um", "1e300"])
    assert code == 3
    assert [str(w.message) for w in caught] == []
    assert "Traceback" not in err
    assert out == ""


def _run_recording_warnings(capsys, argv):
    """(exit code, stdout, stderr, warning messages) of one command."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, argv)
    return code, out, err, [str(w.message) for w in caught]


def test_mandel_span_overflowing_the_scan_exits_2_without_warning(capsys):
    # linspace would form the width 2 span, past the float range
    code, out, err, caught = _run_recording_warnings(
        capsys, ["mandel", "--points", "5", "--span-um", "9e307"])
    assert (code, out, caught) == (2, "", [])
    assert "mismatch span" in err


def test_mandel_span_overflowing_the_fit_box_exits_3_without_warning(capsys):
    # the scan is finite, but the dip fit's box reaches a span past its ends
    code, out, err, caught = _run_recording_warnings(
        capsys, ["mandel", "--points", "5", "--span-um", "8.9e307"])
    assert (code, out, caught) == (3, "", [])
    assert "not finite" in err


def test_stability_period_overflowing_the_phase_exits_2_naming_it(capsys):
    code, out, err, caught = _run_recording_warnings(
        capsys, ["stability", "--period-h", "1e-310", "--duration-h", "1"])
    assert (code, out, caught) == (2, "", [])
    assert "period_h" in err


@pytest.mark.parametrize(
    "command, line",
    [
        ("teleport", "pair_mean_alice = nan"),
        ("mandel", "pair_mean_epr = nan"),
        ("teleport", "dip_fwhm_um = nan"),
        ("teleport", "phase_pump = inf"),
        # finite, but past 2**52 rad, where a double names no phase
        ("teleport", "phase_alice = 1e308"),
        ("teleport", "phase_alice = -1e308"),
        ("mandel", "phase_pump = 1e308"),
        ("mandel", "mandel_phase = 4503599627370497"),
    ],
    ids=["teleport-pair-mean", "mandel-pair-mean", "dip-fwhm", "phase-pump", "phase-alice-huge",
         "phase-alice-huge-negative", "phase-pump-huge", "mandel-phase-past-2**52"],
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
    ["n_max = 4", "max_bins = 3", "rep_rate_hz = 75e6", "bin_pitch_ns = 1.2",
     "statistics = thermal", "statistics = poissonian", "phase_bob = 0.3"],
    ids=["n_max", "max_bins", "rep_rate_hz", "bin_pitch_ns", "statistics-thermal",
         "statistics-poissonian", "phase_bob"],
)
def test_config_may_not_name_n_max(tmp_path, capsys, line):
    # the truncation follows from the pair limit and the time bins from the
    # clock window; the pulse rate and bin pitch enter no simulated number,
    # every source is thermal, and a scan sets Bob's analyzer phase per point
    cfg = tmp_path / "old.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(capsys, ["noise", "--config", str(cfg)])
    assert (code, out) == (2, "")
    assert f"unknown config key {line.split()[0]!r}" in err
    assert "Traceback" not in err


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
        # a Monte-Carlo fringe whose linear fit passes V = 1: the constrained refit
        ["teleport", "--mode", "montecarlo", "--seed", "5"],
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
    # the fits and the calibration's root search are numpy code
    for name, _, modules in seen:
        assert modules == [], name


@pytest.mark.parametrize("line", ["pair_mean_alice = 0.0", "pair_mean_epr = 0.0"])
def test_flat_dip_scan_exits_0(tmp_path, capsys, line):
    # with one source dark the scan is flat, and the dip fit still ends
    cfg = tmp_path / "flat.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(capsys, ["mandel", "--config", str(cfg)])
    assert code == 0, err
    assert json.loads(out)["scenario"] == "mandel"


def test_undersampled_exact_dip_fit_ends(tmp_path, capsys):
    # two of eight points fall in the dip: the noise-free counts fit to a
    # vanishing cost all along a valley of depths and widths, which the fit
    # once crawled down for 5000 trials; it now stops there, with sigmas
    # that say the depth is not pinned
    cfg = tmp_path / "ideal.cfg"
    cfg.write_text("ideal_single_pairs = true\n")
    code, out, err = run_cli(capsys, ["mandel", "--config", str(cfg), "--points", "8",
                                      "--span-um", "1200"])
    assert code == 0, err
    report = json.loads(out)
    assert 0.0 <= report["visibility"] <= 1.0
    assert report["visibility_sigma"] > 1.0


def test_speed_of_light_literal_is_scipys():
    constants = pytest.importorskip("scipy.constants")
    assert detection._SPEED_OF_LIGHT == constants.c
    assert stability._SPEED_OF_LIGHT == constants.c
