"""Printed outputs against recorded reference values.

Each case runs `qrelay.cli.main` in-process on a flat config and compares
what it prints with tests/data/reference_outputs.json: the CSV text byte
for byte, the JSON summary's numbers within 1e-12 relative (the dip
centres, rounding noise around 0 um, within 1e-12 um), and a number
inside a string the same way.  A few dark-count calibrations are checked
too: the clamp exactly, the scale and the achieved ratio within 1e-12
relative.  The test needs numpy alone, so it also shows that the
numpy-only runtime prints the same bytes.

A new case is recorded, from the repository root, with

    PYTHONPATH=src python tests/test_reference_outputs.py

which adds the cases missing from the file and leaves every recorded entry
as it is.  A change that moves a printed number deletes the entries it
moves, records them again this way, and says why the numbers moved.
"""

import json
import math
import re
import sys
from pathlib import Path

import pytest

from qrelay import cli
from qrelay.scenarios import ExperimentConfig, calibrate_dark_counts

DATA = Path(__file__).with_name("data") / "reference_outputs.json"

RTOL = 1e-12
# keys whose values are fitted positions around 0 um, compared absolutely
ABSOLUTE = {"center_short_um": 1e-12, "center_long_um": 1e-12}

# id: (argv, config file text, or None for a command without --config)
CLI_CASES = {
    "teleport-default": (["teleport"], ""),
    "teleport-heralded": (["teleport", "--heralded"], ""),
    "teleport-mean-0.13-heralded": (["teleport"], "pair_mean_alice = 0.13\npair_mean_epr = 0.13\n"
                                                  "heralded = true\n"),
    "teleport-symmetric-dark-bob": (["teleport"], "symmetric_bsa = true\ndark_bob = 3e-4\n"),
    "teleport-montecarlo-seed-5": (["teleport", "--mode", "montecarlo", "--seed", "5"], ""),
    "teleport-mismatch-60-pump-0.7": (["teleport"], "delta_x_um = 60\nphase_pump = 0.7\n"),
    "teleport-mismatch-60-mean-0.13-heralded": (["teleport", "--heralded"],
                                                "delta_x_um = 60\npair_mean_alice = 0.13\n"
                                                "pair_mean_epr = 0.13\n"),
    "noise-default": (["noise"], ""),
    "noise-mean-0.13-heralded": (["noise"], "pair_mean_alice = 0.13\npair_mean_epr = 0.13\n"
                                            "heralded = true\n"),
    "noise-symmetric-dark-bob": (["noise"], "symmetric_bsa = true\ndark_bob = 3e-4\n"),
    "noise-mismatch-60-pump-0.7": (["noise"], "delta_x_um = 60\nphase_pump = 0.7\n"),
    "mandel-default": (["mandel"], ""),
    "mandel-entangled": (["mandel"], "mandel_mode = entangled\n"),
    # a nonzero setting of every device the circuits build
    "teleport-heralded-losses-mismatch-40-alice-0.9": (
        ["teleport", "--heralded"],
        "loss_alice_db = 1.5\nloss_epr_db = 0.7\nloss_herald_db = 1.2\n"
        "delta_x_um = 40\nphase_alice = 0.9\n"),
    "teleport-lossless-encoder-loss-epr-0.5-symmetric": (
        ["teleport"], "alice_encoder = lossless\nloss_epr_db = 0.5\nsymmetric_bsa = true\n"),
    "noise-heralded-losses": (
        ["noise"], "heralded = true\nloss_alice_db = 1.5\nloss_epr_db = 0.7\nloss_herald_db = 1.2\n"),
    "mandel-25-losses-phase-0.4": (
        ["mandel", "--points", "25"], "loss_alice_db = 1.0\nloss_epr_db = 2.0\nmandel_phase = 0.4\n"),
    "mandel-entangled-25-losses-phase-0.4": (
        ["mandel", "--points", "25"],
        "mandel_mode = entangled\nloss_alice_db = 1.0\nloss_epr_db = 2.0\nmandel_phase = 0.4\n"),
    # the trace's coincidence level is the default relay's dip
    "stability-sinusoid-controlled-4h": (
        ["stability", "--duration-h", "4", "--dt-s", "120", "--seed", "3"], None),
    "stability-random-walk-free-4h": (
        ["stability", "--kind", "random-walk", "--no-controller", "--duration-h", "4",
         "--dt-s", "120", "--seed", "3"], None),
}

# id: (config fields, target ratio)
CALIBRATION_CASES = {
    "default-target-3": ({}, 3.0),
    "heralded-target-2": ({"heralded": True}, 2.0),
    "mean-0.13-heralded-target-1": ({"pair_mean_alice": 0.13, "pair_mean_epr": 0.13,
                                     "heralded": True}, 1.0),
    "default-target-0.2-clamped": ({}, 0.2),
    "mismatch-20-target-3": ({"delta_x_um": 20.0, "pair_mean_alice": 0.16, "pair_mean_epr": 0.04},
                             3.0),
    "losses-target-3": ({"loss_alice_db": 1.0, "loss_epr_db": 0.5, "pair_mean_alice": 0.16,
                         "pair_mean_epr": 0.04}, 3.0),
}


def run_case(argv, config_text, capsys=None):
    """(JSON summary, CSV text) that `argv` prints and writes, run in the
    current directory with `config_text`, unless None, as its config file."""
    if config_text is not None:
        Path("run.cfg").write_text(config_text)
        argv = argv + ["--config", "run.cfg"]
    code = cli.main(argv + ["--out", "out.csv"])
    out = capsys.readouterr().out if capsys else None
    assert code == 0
    return out, Path("out.csv").read_text()


def run_calibration(fields, target):
    _, report = calibrate_dark_counts(ExperimentConfig(**fields), target)
    return {"dark_scale": report.dark_scale, "clamped": report.clamped,
            "achieved_ratio": report.achieved_ratio}


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def assert_matches(got, expected, path="", atol=0.0):
    """`got` equals `expected` in structure and type, its floats and the
    numbers inside its strings within RTOL relative or `atol`."""
    assert type(got) is type(expected), (path, got, expected)
    if isinstance(expected, dict):
        assert sorted(got) == sorted(expected), path
        for key in expected:
            assert_matches(got[key], expected[key], f"{path}.{key}", ABSOLUTE.get(key, atol))
    elif isinstance(expected, float):
        assert math.isclose(got, expected, rel_tol=RTOL, abs_tol=atol), (path, got, expected)
    elif isinstance(expected, str):
        assert _NUMBER.split(got) == _NUMBER.split(expected), (path, got, expected)
        for a, b in zip(_NUMBER.findall(got), _NUMBER.findall(expected)):
            assert math.isclose(float(a), float(b), rel_tol=RTOL, abs_tol=atol), (path, got, expected)
    else:
        assert got == expected, (path, got, expected)


@pytest.fixture(scope="module")
def reference():
    return json.loads(DATA.read_text())


def test_reference_cases_are_recorded(reference):
    assert sorted(reference["cli"]) == sorted(CLI_CASES)
    assert sorted(reference["calibrations"]) == sorted(CALIBRATION_CASES)
    assert any(entry["clamped"] for entry in reference["calibrations"].values())


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_output_matches_reference(tmp_path, monkeypatch, capsys, reference, case):
    monkeypatch.chdir(tmp_path)
    out, csv = run_case(*CLI_CASES[case], capsys)
    expected = reference["cli"][case]
    assert csv == expected["csv"]
    assert_matches(json.loads(out), expected["json"])


@pytest.mark.parametrize("case", sorted(CALIBRATION_CASES))
def test_calibration_matches_reference(reference, case):
    assert_matches(run_calibration(*CALIBRATION_CASES[case]), reference["calibrations"][case])


def _regenerate():
    import contextlib
    import io
    import os
    import tempfile

    document = json.loads(DATA.read_text()) if DATA.exists() else {}
    cli_entries = document.setdefault("cli", {})
    calibrations = document.setdefault("calibrations", {})
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for case, (argv, text) in CLI_CASES.items():
                if case in cli_entries:
                    continue
                printed = io.StringIO()
                with contextlib.redirect_stdout(printed):
                    _, csv = run_case(argv, text)
                cli_entries[case] = {"json": json.loads(printed.getvalue()), "csv": csv}
        finally:
            os.chdir(home)
    for case, (fields, target) in CALIBRATION_CASES.items():
        if case not in calibrations:
            calibrations[case] = run_calibration(fields, target)
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(_regenerate())
