"""Property tests: the array paths of qrelay.detection against the
brute-force click enumeration in tests/oracles.py."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as hs  # noqa: E402
from oracles import (  # noqa: E402
    DetectionLayout,
    click_distribution,
    herald_filter,
    psi_minus_filter,
)
from qrelay.detection import (  # noqa: E402
    DetectorChannel,
    DetectorModel,
    coincidence_probability,
    teleport_outcome_distribution,
)
from qrelay.fock import FockState, ModeRegistry, vacuum  # noqa: E402

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
    state = FockState(reg, terms)
    if state.norm_sq() < 1e-3:
        state = vacuum(reg)
    return state.normalize()


@hs.composite
def small_ensembles(draw, reg):
    states = [draw(small_states(reg)) for _ in range(draw(hs.integers(1, 2)))]
    if len(states) == 1:
        return [(1.0, states[0])]
    w = draw(hs.sampled_from([0.0, 0.5, 1.0]) | hs.floats(0.0, 1.0))
    return [(w, states[0]), (1.0 - w, states[1])]


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
    ensemble = data.draw(small_ensembles(reg))
    ge = data.draw(detector("bsa-ge", "a"))
    drawn = data.draw(detector("bsa-ingaas", "c"))
    # a free-running partner accepts both time orderings, an armed one only
    # ge first
    ingaas = DetectorChannel(
        drawn.model, drawn.spatial, follows=None if symmetric else ge.model.label
    )
    bob = data.draw(detector("bob", "b"))
    herald = data.draw(detector("herald", "h")) if heralded else None
    fast = teleport_outcome_distribution(ensemble, ge, ingaas, bob, herald=herald)
    accept, bob_probs = _oracle_outcome(ensemble, ge, ingaas, bob, herald)
    assert abs(fast.accept - accept) < 1e-12
    for b in (0, 1, 2):
        assert abs(fast.bob[b] - bob_probs[b]) < 1e-12


@PROPERTY_SETTINGS
@given(hs.data(), hs.sampled_from([None, (0,), (1, 2)]))
def test_coincidence_probability_matches_click_enumeration(data, bins):
    reg = _teleport_registry()
    ensemble = data.draw(small_ensembles(reg))
    da = data.draw(detector("da", "a"))
    db = data.draw(detector("db", "c"))
    dist = click_distribution(ensemble, DetectionLayout([da, db]))
    use_bins = range(reg.max_bins) if bins is None else bins
    expect = sum(
        p
        for pattern, p in dist.items()
        for t in use_bins
        if ("da", t) in pattern and ("db", t) in pattern
    )
    assert abs(coincidence_probability(ensemble, da, db, bins=bins) - expect) < 1e-12
