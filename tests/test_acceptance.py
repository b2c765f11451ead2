"""Release gate: one test per headline result, runnable in any order.

Each test prints a single PASS/FAIL line (visible with pytest -s) naming
the quantity it checked, then asserts.  Targets are the physics of the
modeled experiment: the bunching null and its 1/3 thermal ceiling, the
144 um dip width, the exact 1/4 Bell acceptance, the raw and
background-corrected fringe windows, the benchmark fidelities, the
spacing arithmetic, the drift and stabilization shapes, the receiver
gate slack, and Monte-Carlo consistency with the analytic engine.
"""

import math
from dataclasses import replace

import numpy as np

from qrelay.analysis import (
    fidelity_from_visibility,
    fit_dip,
    fit_fringe,
    net_visibility,
)
from qrelay.detection import TimingBudget, validate_timing
from qrelay.scenarios import (
    ExperimentConfig,
    TeleportEngine,
    build_ideal_config,
    calibrate_dark_counts,
    mismatch_grid,
    phase_grid,
    run_mandel_scan,
    run_teleport_scan,
)
from qrelay.stability import (
    DEFAULT_GAIN_UM_PER_HZ,
    RATE_LENGTH_UM_PER_HZ,
    DriftModel,
    pulse_spacing,
    simulate,
)

IDEAL_DETECTORS = dict(
    eta_ge=1.0,
    eta_ingaas_bsa=1.0,
    dark_ge=0.0,
    dark_ingaas_bsa=0.0,
    dark_herald=0.0,
    dark_bob=0.0,
    loss_alice_db=0.0,
    loss_epr_db=0.0,
)


def _report(number: int, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {status} {detail}", flush=True)
    return ok


def _fixed(value: float) -> str:
    """Three decimals; adding 0.0 turns a rounded -0.0 into 0.0, so rounding
    noise around zero prints the same way on either side."""
    return f"{round(value, 3) + 0.0:.3f}"


def _dip_scan():
    cfg = ExperimentConfig(pair_mean_alice=1e-3, pair_mean_epr=1e-3, **IDEAL_DETECTORS)
    xs = mismatch_grid(21, 300.0)
    short, long_ = run_mandel_scan(cfg, xs)
    return xs, short, long_


def _noise_fringe():
    cal, _ = calibrate_dark_counts(ExperimentConfig())
    phases = phase_grid(24, 2.0)
    scan = run_teleport_scan(TeleportEngine(cal), phases)
    fit = fit_fringe(scan.control, scan.counts)
    return cal, scan, fit


def test_criterion_01_two_photon_interference_null():
    short, long_ = run_mandel_scan(build_ideal_config(), [0.0])
    worst = max(short.probability[0], long_.probability[0])
    ok = worst < 1e-12
    assert _report(1, ok, f"ideal-overlap coincidence {worst:.3e} (< 1e-12)")


def test_criterion_02_thermal_dip_visibility_one_third():
    xs, short, _ = _dip_scan()
    depth = fit_dip(xs, short.counts).depth
    ok = abs(depth - 1.0 / 3.0) <= 0.01 / 3.0
    assert _report(2, ok, f"dip visibility {depth:.6f} (1/3 within 1%)")


def test_criterion_03_dip_width_and_shared_center():
    xs, short, long_ = _dip_scan()
    fs = fit_dip(xs, short.counts)
    fl = fit_dip(xs, long_.counts)
    ok = (
        abs(fs.fwhm - 144.0) <= 0.02 * 144.0
        and abs(fl.fwhm - 144.0) <= 0.02 * 144.0
        and abs(fs.center) < 1.0
        and abs(fl.center) < 1.0
    )
    assert _report(
        3,
        ok,
        f"fwhm {fs.fwhm:.2f}/{fl.fwhm:.2f} um (144 within 2%), "
        f"centers {_fixed(fs.center)}/{_fixed(fl.center)} um",
    )


def test_criterion_04_ideal_teleportation():
    cfg = build_ideal_config()
    engine = TeleportEngine(cfg)
    acceptance = engine.acceptance()
    scan = run_teleport_scan(engine, phase_grid(16, 1.0))
    fit = fit_fringe(scan.control, scan.counts)
    ok = fit.visibility >= 0.999 and abs(acceptance - 0.25) <= 1e-6
    assert _report(
        4,
        ok,
        f"fringe visibility {fit.visibility:.9f} (>= 0.999), "
        f"acceptance {acceptance:.9f} (0.25 within 1e-6)",
    )


def test_criterion_05_noise_limited_visibility_windows():
    cal, scan, fit = _noise_fringe()
    background = TeleportEngine(cal).background() * scan.pulses
    nv = net_visibility(fit.visibility, fit.offset, background)
    ok = 0.40 <= fit.visibility <= 0.52 and 0.79 <= nv.value <= 1.00
    assert _report(
        5,
        ok,
        f"raw visibility {fit.visibility:.4f} (in [0.40, 0.52]), "
        f"net {nv.value:.4f} (in [0.79, 1.00], capped={nv.capped})",
    )


def test_criterion_06_heralded_visibility():
    cal, _, fit5 = _noise_fringe()
    heralded = replace(cal, heralded=True, pair_mean_alice=0.13, pair_mean_epr=0.13)
    scan = run_teleport_scan(TeleportEngine(heralded), phase_grid(24, 2.0))
    fit = fit_fringe(scan.control, scan.counts)
    in_window = abs(fit.visibility - 0.87) <= 0.07
    ok = fit.visibility >= 2.0 / 3.0 and fit.visibility >= fit5.visibility
    assert _report(
        6,
        ok,
        f"heralded visibility {fit.visibility:.4f} (>= 2/3 and >= raw "
        f"{fit5.visibility:.4f}); reference window 0.87+/-0.07 "
        f"{'contains' if in_window else 'does not contain'} it",
    )


def test_criterion_07_fidelity_benchmarks():
    pairs = (
        (fidelity_from_visibility(0.46), 0.73),
        (fidelity_from_visibility(0.87), 0.935),
        (fidelity_from_visibility(1.0 / 3.0), 2.0 / 3.0),
        (fidelity_from_visibility(2.0 / 3.0), 5.0 / 6.0),
    )
    ok = all(abs(got - want) < 1e-12 for got, want in pairs)
    assert _report(
        7,
        ok,
        "fidelities 0.73 / 0.935 and thresholds 2/3, 5/6 exact",
    )


def test_criterion_08_spacing_arithmetic():
    shift_um = RATE_LENGTH_UM_PER_HZ * 400.0
    spacing = pulse_spacing(75e6, 1.47)
    ok = abs(shift_um - 15.0) / 15.0 <= 0.05 and abs(spacing - 2.72) / 2.72 <= 0.01
    assert _report(
        8,
        ok,
        f"400 Hz shift {shift_um:.3f} um (15 within 5%), "
        f"spacing {spacing:.5f} m (2.72 within 1%)",
    )


def test_criterion_09_drift_and_stabilization_shapes():
    free = simulate(DriftModel(), None, 6 * 3600.0, 60.0, seed=3)
    held = simulate(DriftModel(), DEFAULT_GAIN_UM_PER_HZ, 24 * 3600.0, 60.0, seed=3)
    floor = held.norm_coincidences.min()
    ok = free.norm_coincidences.max() >= 0.95 and held.norm_coincidences.max() <= floor + 0.1
    assert _report(
        9,
        ok,
        f"free-running peak {free.norm_coincidences.max():.3f} (>= 0.95 in 6 h), "
        f"stabilized peak {held.norm_coincidences.max():.4f} "
        f"(<= floor {floor:.4f} + 0.1 over 24 h)",
    )


def test_criterion_10_receiver_gate_slack():
    slack = validate_timing(TimingBudget())
    slack0 = validate_timing(TimingBudget(bob_spool_m=0.0))
    ok = slack > 0 and slack0 < 0
    assert _report(
        10,
        ok,
        f"default slack {slack * 1e9:.3f} ns (> 0), "
        f"no-spool slack {slack0 * 1e9:.3f} ns (< 0)",
    )


def test_criterion_11_montecarlo_consistency():
    checks = []
    reruns = []

    # bunching-dip scenario
    cfg2 = ExperimentConfig(
        pair_mean_alice=1e-3,
        pair_mean_epr=1e-3,
        mode="montecarlo",
        trials=10**6,
        seed=101,
        **IDEAL_DETECTORS,
    )
    xs = mismatch_grid(21, 300.0)
    short_a, _ = run_mandel_scan(cfg2, xs)
    short_b, _ = run_mandel_scan(cfg2, xs)
    lam = short_a.probability * short_a.pulses
    checks.append(bool(abs(short_a.counts.sum() - lam.sum()) <= 3.0 * math.sqrt(lam.sum() + 1.0)))
    reruns.append(np.array_equal(short_a.counts, short_b.counts))

    # ideal teleportation scenario
    cfg4 = replace(build_ideal_config(), mode="montecarlo", trials=10**6, seed=102)
    phases = phase_grid(12, 1.0)
    tel_a = run_teleport_scan(TeleportEngine(cfg4), phases)
    tel_b = run_teleport_scan(TeleportEngine(cfg4), phases)
    lam = tel_a.probability * tel_a.pulses
    checks.append(bool(abs(tel_a.counts.sum() - lam.sum()) <= 3.0 * math.sqrt(lam.sum() + 1.0)))
    reruns.append(np.array_equal(tel_a.counts, tel_b.counts))

    # noise-limited fringe scenario
    cal, _ = calibrate_dark_counts(ExperimentConfig())
    cfg5 = replace(cal, mode="montecarlo", trials=10**6, seed=103)
    noisy_a = run_teleport_scan(TeleportEngine(cfg5), phase_grid(24, 2.0))
    noisy_b = run_teleport_scan(TeleportEngine(cfg5), phase_grid(24, 2.0))
    lam = noisy_a.probability * noisy_a.pulses
    checks.append(bool(abs(noisy_a.counts.sum() - lam.sum()) <= 3.0 * math.sqrt(lam.sum() + 1.0)))
    reruns.append(np.array_equal(noisy_a.counts, noisy_b.counts))

    ok = all(checks) and all(reruns)
    assert _report(
        11,
        ok,
        f"totals within 3 SE {checks}, byte-identical reruns {reruns}",
    )
