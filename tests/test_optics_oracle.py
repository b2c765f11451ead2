"""Property tests: qrelay.optics.apply, one pass through the composed transfer
matrix, against a fold of the brute-force general_transform in
tests/oracles.py over the circuit's elements, one element at a time, on
random circuits and on the relay's own; and each device's single element
against the product of the primitives it is made of."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as hs  # noqa: E402
from oracles import (  # noqa: E402
    add_beamsplitter,
    add_delay,
    add_loss,
    add_phase,
    from_terms,
    general_transform,
    normalized,
    terms,
)
from qrelay.errors import QRelayError  # noqa: E402
from qrelay import scenarios  # noqa: E402
from qrelay.fock import PRUNE_TOL, ModeKey, ModeRegistry  # noqa: E402
from qrelay.optics import Circuit, apply  # noqa: E402

# derandomized and without the example database, so every run draws the
# same examples
PROPERTY_SETTINGS = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

PHASE = hs.floats(-math.pi, math.pi)
TRANSMITTANCE = hs.one_of(hs.just(0.0), hs.just(1.0), hs.floats(0.0, 1.0))
INTERNALS = {"a": (0, 1), "b": (0,)}


@hs.composite
def circuits(draw):
    """Up to six random elements on channel a (internal labels 0, 1) and
    channel b over three bins; losses, delays and Michelsons register more
    modes as they go."""
    reg = ModeRegistry(max_bins=3)
    for spatial, internals in INTERNALS.items():
        reg.add_channel(spatial, internals)
    circ = Circuit(reg)
    for _ in range(draw(hs.integers(0, 6))):
        kind = draw(hs.sampled_from(
            ("beamsplitter", "phase", "loss", "encoder", "michelson", "delay")
        ))
        modes = [reg.key_at(i) for i in range(len(reg))]
        spatial = draw(hs.sampled_from(sorted(INTERNALS)))
        if kind == "beamsplitter":
            a, b = draw(hs.lists(hs.sampled_from(modes), min_size=2, max_size=2, unique=True))
            add_beamsplitter(circ, a, b, draw(TRANSMITTANCE), draw(PHASE))
        elif kind == "phase":
            add_phase(circ, draw(hs.sampled_from(modes)), draw(PHASE))
        elif kind == "loss":
            mode = draw(hs.sampled_from([m for m in modes if m.spatial in INTERNALS]))
            add_loss(circ, mode, draw(TRANSMITTANCE), "sink")
        elif kind == "encoder":
            circ.add_bin_encoder(spatial, draw(PHASE))
        elif kind == "michelson":
            circ.add_michelson(spatial, draw(PHASE))
        else:
            channels = sorted({m.spatial for m in modes})
            add_delay(circ, draw(hs.sampled_from(channels)), draw(hs.sampled_from((-1, 1, 2))))
    return circ


@hs.composite
def states(draw, reg):
    """Up to three terms of at most 4 photons each; the amplitudes come from
    a seeded generator, so no two terms cancel by construction."""
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    start = {}
    for _ in range(draw(hs.integers(1, 3))):
        occ = [0] * len(reg)
        for _ in range(draw(hs.integers(0, 4))):
            occ[draw(hs.integers(0, len(reg) - 1))] += 1
        amp = (1.0 + rng.random()) * np.exp(2j * math.pi * rng.random())
        start[bytes(occ)] = start.get(bytes(occ), 0.0) + amp
    return normalized(from_terms(reg, start))


def _norm_sq(fold):
    return sum(abs(v) ** 2 for v in fold.values())


@PROPERTY_SETTINGS
@given(data=hs.data())
def test_apply_matches_element_by_element_oracle(data):
    circ = data.draw(circuits())
    state = data.draw(states(circ.registry))
    fold = terms(state)
    for idxs, m in circ.elements:
        fold = general_transform(fold, list(idxs), m, 0.0)
    lost = 1.0 - _norm_sq(fold)
    try:
        out = terms(apply(circ.transfer(), state))
    except QRelayError as exc:
        assert "past the last bin" in str(exc)
        assert lost > 1e-12
        return
    assert max(
        (abs(out.get(k, 0.0) - fold.get(k, 0.0)) for k in set(out) | set(fold)),
        default=0.0,
    ) < 1e-12
    # a row of the transfer matrix may lose up to NORM_ATOL (1e-9) of its
    # norm before apply raises; four photons lose at most four times that
    assert lost < 1e-8


# a device's element against its primitives' product, composed by transfer()
DEVICE_ATOL = 1e-15


def _device_and_primitives(max_bins, labels, build_device, build_primitives):
    """(device circuit, primitives circuit), each on its own registry with
    channel "s" over `labels`; both must register the same modes."""
    circuits = []
    for build in (build_device, build_primitives):
        reg = ModeRegistry(max_bins)
        reg.add_channel("s", labels)
        circ = Circuit(reg)
        build(circ)
        circuits.append(circ)
    device, primitives = circuits
    keys = [[c.registry.key_at(i) for i in range(len(c.registry))] for c in circuits]
    assert keys[0] == keys[1]
    assert len(device.elements) == 1
    return device, primitives


def _assert_same_transfer(device, primitives):
    assert np.abs(device.transfer() - primitives.transfer()).max() <= DEVICE_ATOL


LABELS = hs.sampled_from([(0,), (0, 1)])


@PROPERTY_SETTINGS
@given(bins=hs.integers(2, 4), labels=LABELS, phase=hs.floats(-100.0, 100.0))
def test_michelson_is_its_couplers_delay_and_phases(bins, labels, phase):
    def primitives(circ):
        reg = circ.registry
        reg.add_channel("p", labels)
        pairs = [(ModeKey("s", t, i), ModeKey("p", t, i)) for t in range(bins) for i in labels]
        for a, b in pairs:
            add_beamsplitter(circ, a, b)
        add_delay(circ, "p", 1)
        for t in range(bins):
            for i in labels:
                add_phase(circ, ModeKey("p", t, i), phase + math.pi)
        for a, b in pairs:
            add_beamsplitter(circ, a, b)

    _assert_same_transfer(*_device_and_primitives(
        bins, labels, lambda circ: circ.add_michelson("s", phase, loss_spatial="p"), primitives))


@PROPERTY_SETTINGS
@given(bins=hs.integers(1, 4), labels=LABELS, t=TRANSMITTANCE.filter(lambda t: t < 1.0))
def test_channel_loss_is_a_loss_per_mode(bins, labels, t):
    def primitives(circ):
        for mode in [circ.registry.key_at(i) for i in circ.registry.indices_for("s")]:
            add_loss(circ, mode, t, "s-loss")

    _assert_same_transfer(*_device_and_primitives(
        bins, labels, lambda circ: circ.add_channel_loss("s", t), primitives))


@PROPERTY_SETTINGS
@given(bins=hs.integers(2, 4), labels=LABELS, phase=PHASE)
def test_bin_encoder_is_one_two_bin_unitary_per_label(bins, labels, phase):
    u = np.array([[1.0, np.exp(1j * phase)], [1.0, -np.exp(1j * phase)]]) / math.sqrt(2.0)

    def primitives(circ):
        for i in labels:
            circ.add_unitary((ModeKey("s", 0, i), ModeKey("s", 1, i)), u)

    _assert_same_transfer(*_device_and_primitives(
        bins, labels, lambda circ: circ.add_bin_encoder("s", phase), primitives))


def test_bell_mixer_is_a_beamsplitter_per_bin_and_label():
    device, primitives = Circuit(scenarios._relay_registry()), Circuit(scenarios._relay_registry())
    scenarios._add_bell_mixer(device)
    for t in range(primitives.registry.max_bins):
        for i in (0, 1):
            add_beamsplitter(primitives, ModeKey(scenarios.ALICE_QUBIT, t, i),
                             ModeKey(scenarios.EPR_QUBIT, t, i))
    assert len(device.elements) == 1
    _assert_same_transfer(device, primitives)


# the relay's own circuits on their two-pair branch mixtures, against the
# element-by-element fold; each case names the modes whose photons move
RELAY_LOSSES = {"loss_alice_db": 1.0, "loss_epr_db": 0.5, "loss_herald_db": 0.7,
                "loss_bob_db": 2.5}
RELAY_CASES = {
    "teleport-default": 6,
    "teleport-heralded-four-losses": 7,
    "dip-symmetric": 3,
    "dip-entangled": 4,
}


@pytest.mark.parametrize("case", sorted(RELAY_CASES))
def test_apply_matches_the_oracle_on_the_relay_circuits(case):
    if case == "teleport-default":
        circ, relay_bins = scenarios._teleport_circuit(scenarios.ExperimentConfig()), (0, 1)
    elif case.startswith("teleport"):
        cfg = scenarios.ExperimentConfig(heralded=True, **RELAY_LOSSES)
        circ, relay_bins = scenarios._teleport_circuit(cfg), (0, 1)
    else:
        circ, relay_bins = scenarios._dip_circuit(scenarios.ExperimentConfig(
            mandel_mode=case[len("dip-"):], mandel_phase=0.4, **RELAY_LOSSES))
    two_pairs = [(na, nc) for na, nc in scenarios.pair_branches() if na + nc == 2]
    state = scenarios._branch_mixture(circ.registry, scenarios._components(two_pairs),
                                      relay_bins, 0.3)
    t = circ.transfer()
    moves = (t != np.eye(len(t))).any(axis=1)
    assert np.count_nonzero(state.occupations.any(axis=0) & moves) == RELAY_CASES[case]
    fold = terms(state)
    for idxs, m in circ.elements:
        fold = general_transform(fold, list(idxs), m, 0.0)
    # the fold keeps the exact zeros of cancelled terms, which apply prunes
    fold = {k: v for k, v in fold.items() if abs(v) >= PRUNE_TOL}
    out = terms(apply(t, state))
    assert set(out) == set(fold)
    assert all(abs(out[k] - v) <= 1e-15 * abs(v) for k, v in fold.items())
