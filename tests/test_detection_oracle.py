"""Property tests: the array paths of qrelay.detection against the
brute-force click enumeration in tests/oracles.py, branch by branch of a
record-tagged mixture."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as hs  # noqa: E402
from oracles import (  # noqa: E402
    DetectionLayout,
    click_distribution,
    from_terms,
    herald_filter,
    norm_sq,
    normalized,
    psi_minus_filter,
)
from qrelay.detection import (  # noqa: E402
    DetectorChannel,
    DetectorModel,
    coincidence_probability,
    teleport_outcome_distribution,
)
from qrelay.fock import BRANCH_RECORD, FockState, ModeRegistry, vacuum  # noqa: E402

# derandomized and without the example database, so every run draws the
# same examples
PROPERTY_SETTINGS = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# exact 0 and 1 are where the leave-one-out products and skipped options matter
EFFICIENCY = hs.one_of(hs.just(0.0), hs.just(1.0), hs.floats(0.0, 1.0))
DARK = hs.one_of(hs.just(0.0), hs.floats(0.0, 0.3))


@hs.composite
def small_states(draw, reg):
    """A normalized superposition of up to three random occupation vectors."""
    terms = {}
    for _ in range(draw(hs.integers(1, 3))):
        occ = [0] * len(reg)
        for _ in range(draw(hs.integers(0, 3))):
            occ[draw(hs.integers(0, len(reg) - 1))] += 1
        amp = complex(draw(hs.floats(-1.0, 1.0)), draw(hs.floats(-1.0, 1.0)))
        terms[bytes(occ)] = terms.get(bytes(occ), 0.0) + amp
    state = from_terms(reg, terms)
    if norm_sq(state) < 1e-3:
        state = vacuum(reg)
    return normalized(state)


@hs.composite
def record_mixtures(draw, reg):
    """One to three random states, and the mixture that tags each state's
    rows with its position in the BRANCH_RECORD mode, registered last."""
    states = [draw(small_states(reg)) for _ in range(draw(hs.integers(1, 3)))]
    reg.add(BRANCH_RECORD)
    mixture = FockState(
        reg,
        np.concatenate([
            np.column_stack([st.occupations, np.full(len(st), b)])
            for b, st in enumerate(states)
        ]),
        np.concatenate([st.amplitudes for st in states]),
    )
    return mixture, states


@hs.composite
def branch_weights(draw, n):
    """n weights summing to 1, with exact zeros and ones among them."""
    raw = np.array([draw(hs.sampled_from([0.0, 1.0]) | hs.floats(0.0, 1.0)) for _ in range(n)])
    if raw.sum() == 0.0:
        raw[0] = 1.0
    return raw / raw.sum()


@hs.composite
def detector(draw, label, spatial):
    return DetectorChannel(DetectorModel(label, draw(EFFICIENCY), draw(DARK)), spatial)


def _teleport_registry():
    reg = ModeRegistry(max_bins=3)
    reg.add_channel("a", (0, 1))
    for s in ("c", "h", "b"):
        reg.add_channel(s)
    return reg


def _oracle_outcome(ensemble, ge, ingaas, bob, herald):
    channels = [ge, ingaas, bob] + ([herald] if herald is not None else [])
    accepted = {
        pattern: p
        for pattern, p in click_distribution(ensemble, DetectionLayout(channels)).items()
        if psi_minus_filter(pattern) and herald_filter(pattern, enabled=herald is not None)
    }
    bob_probs = {
        b: sum(p for pattern, p in accepted.items() if ("bob", b) in pattern)
        for b in (0, 1, 2)
    }
    return sum(accepted.values()), bob_probs


@PROPERTY_SETTINGS
@given(hs.data(), hs.booleans(), hs.booleans())
def test_teleport_outcome_matches_click_enumeration(data, symmetric, heralded):
    reg = _teleport_registry()
    mixture, states = data.draw(record_mixtures(reg))
    ge = data.draw(detector("bsa-ge", "a"))
    drawn = data.draw(detector("bsa-ingaas", "c"))
    # a free-running partner accepts both time orderings, an armed one only
    # ge first
    ingaas = DetectorChannel(
        drawn.model, drawn.spatial, follows=None if symmetric else ge.model.label
    )
    bob = data.draw(detector("bob", "b"))
    herald = data.draw(detector("herald", "h")) if heralded else None
    fast = teleport_outcome_distribution(mixture, ge, ingaas, bob, herald=herald)
    assert fast.accept.shape == (len(states),)
    assert fast.bob.shape == (len(states), 3)
    for b, state in enumerate(states):
        accept, bob_probs = _oracle_outcome([(1.0, state)], ge, ingaas, bob, herald)
        assert abs(fast.accept[b] - accept) < 1e-12
        for t in (0, 1, 2):
            assert abs(fast.bob[b, t] - bob_probs[t]) < 1e-12
    # a weighted mixture's outcome is the weights dotted into the branches'
    w = data.draw(branch_weights(len(states)))
    accept, bob_probs = _oracle_outcome(list(zip(w, states)), ge, ingaas, bob, herald)
    assert abs(w @ fast.accept - accept) < 1e-12
    assert np.abs(w @ fast.bob - [bob_probs[t] for t in (0, 1, 2)]).max() < 1e-12


@PROPERTY_SETTINGS
@given(hs.data())
def test_coincidence_probability_matches_click_enumeration(data):
    reg = _teleport_registry()
    mixture, states = data.draw(record_mixtures(reg))
    da = data.draw(detector("da", "a"))
    db = data.draw(detector("db", "c"))
    fast = coincidence_probability(mixture, da, db)
    assert fast.shape == (len(states), reg.max_bins)
    for b, state in enumerate(states):
        dist = click_distribution([(1.0, state)], DetectionLayout([da, db]))
        for t in range(reg.max_bins):
            expect = sum(
                p for pattern, p in dist.items() if ("da", t) in pattern and ("db", t) in pattern
            )
            assert abs(fast[b, t] - expect) < 1e-12
