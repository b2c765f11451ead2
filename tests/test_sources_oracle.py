"""Property tests: the closed-form pair emissions of qrelay.sources against
the creation-operator loops in tests/oracles.py, which apply the two-photon
emission operator n times and normalize."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

import oracles  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as hs  # noqa: E402
from oracles import apply_creation, from_terms, norm_sq, normalized, terms  # noqa: E402
from qrelay.errors import ConfigError, QRelayError  # noqa: E402
from qrelay.fock import ModeKey, ModeRegistry, vacuum  # noqa: E402
from qrelay.sources import emit_pairs_entangled, emit_pairs_single_bin  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

XI = hs.one_of(hs.just(0.0), hs.just(1.0), hs.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
PHASE = hs.floats(-math.pi, math.pi)


def _registry():
    reg = ModeRegistry(max_bins=2)
    reg.add_channel("sig", (0, 1))
    reg.add_channel("idl")
    reg.add_channel("other", (0, 1))
    return reg


@hs.composite
def prior_states(draw, reg):
    """Vacuum, or up to three terms with photons only in the `other` modes."""
    others = reg.indices_for("other")
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    start = {bytes(len(reg)): 1.0 + 0.0j}
    for _ in range(draw(hs.integers(0, 2))):
        occ = [0] * len(reg)
        for _ in range(draw(hs.integers(1, 3))):
            occ[draw(hs.sampled_from(others))] += 1
        start[bytes(occ)] = (1.0 + rng.random()) * np.exp(2j * math.pi * rng.random())
    return normalized(from_terms(reg, start))


def _max_diff(a, b):
    a, b = terms(a), terms(b)
    return max((abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b)), default=0.0)


@PROPERTY_SETTINGS
@given(data=hs.data(), n=hs.integers(0, 4), xi=XI, time_bin=hs.sampled_from((0, 1)))
def test_single_bin_matches_creation_operator_oracle(data, n, xi, time_bin):
    reg = _registry()
    state = data.draw(prior_states(reg))
    closed = emit_pairs_single_bin(state, "sig", "idl", n, time_bin, xi)
    oracle = oracles.emit_pairs_single_bin(state, "sig", "idl", n, time_bin, xi)
    assert _max_diff(closed, oracle) < 1e-12
    assert abs(norm_sq(closed) - 1.0) < 1e-12


@PROPERTY_SETTINGS
@given(
    data=hs.data(),
    n=hs.integers(0, 4),
    phase=PHASE,
    bins=hs.sampled_from(((0, 1), (1, 0), (0,), (1,))),
)
def test_entangled_matches_creation_operator_oracle(data, n, phase, bins):
    reg = _registry()
    state = data.draw(prior_states(reg))
    closed = emit_pairs_entangled(state, "sig", "idl", n, bins, phase)
    oracle = oracles.emit_pairs_entangled(state, "sig", "idl", n, bins, phase)
    assert _max_diff(closed, oracle) < 1e-12
    assert abs(norm_sq(closed) - 1.0) < 1e-12


@PROPERTY_SETTINGS
@given(data=hs.data(), na=hs.integers(0, 4), xi=XI, phase=PHASE)
def test_relay_after_single_bin_matches_oracle(data, na, xi, phase):
    # the relay pairs land on a state that already holds the first
    # source's pairs, as in the branch states of the scenarios
    reg = _registry()
    reg.add_channel("relay")
    reg.add_channel("bob")
    state = data.draw(prior_states(reg))
    nc = data.draw(hs.integers(0, 4 - na))
    closed = emit_pairs_entangled(
        emit_pairs_single_bin(state, "sig", "idl", na, 0, xi), "relay", "bob", nc, (0, 1), phase
    )
    oracle = oracles.emit_pairs_entangled(
        oracles.emit_pairs_single_bin(state, "sig", "idl", na, 0, xi),
        "relay", "bob", nc, (0, 1), phase,
    )
    assert _max_diff(closed, oracle) < 1e-12


def test_emission_into_an_occupied_mode_raises():
    reg = _registry()
    for mode in (ModeKey("sig", 0, 0), ModeKey("sig", 0, 1), ModeKey("idl", 0)):
        busy = apply_creation(vacuum(reg), mode)
        with pytest.raises(QRelayError):
            emit_pairs_single_bin(busy, "sig", "idl", 1, 0, 0.5)
    busy = apply_creation(vacuum(reg), ModeKey("idl", 1))
    with pytest.raises(QRelayError):
        emit_pairs_entangled(busy, "sig", "idl", 2)
    # the label-1 mode is untouched at xi = 1, so a photon there is allowed
    free = apply_creation(vacuum(reg), ModeKey("sig", 0, 1))
    assert len(emit_pairs_single_bin(free, "sig", "idl", 2, 0, 1.0)) == 1


def test_emission_rejects_what_the_closed_form_does_not_cover():
    reg = _registry()
    with pytest.raises(ConfigError):
        emit_pairs_single_bin(vacuum(reg), "sig", "idl", 1, 0, 1.5)
    with pytest.raises(ConfigError):
        emit_pairs_entangled(vacuum(reg), "sig", "idl", 1, (0, 0))
