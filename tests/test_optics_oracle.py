"""Property test: qrelay.optics.apply, one pass through the composed transfer
matrix, against a fold of the brute-force general_transform in
tests/oracles.py over the circuit's elements, one element at a time."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as hs  # noqa: E402
from oracles import from_terms, general_transform, normalized, terms  # noqa: E402
from qrelay.errors import BinOverflowError  # noqa: E402
from qrelay.fock import ModeRegistry  # noqa: E402
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
            circ.add_beamsplitter(a, b, draw(TRANSMITTANCE), draw(PHASE))
        elif kind == "phase":
            circ.add_phase(draw(hs.sampled_from(modes)), draw(PHASE))
        elif kind == "loss":
            mode = draw(hs.sampled_from([m for m in modes if m.spatial in INTERNALS]))
            circ.add_loss(mode, draw(TRANSMITTANCE), "sink")
        elif kind == "encoder":
            circ.add_bin_encoder(spatial, draw(PHASE), INTERNALS[spatial])
        elif kind == "michelson":
            circ.add_michelson(spatial, draw(PHASE), INTERNALS[spatial])
        else:
            channels = sorted({m.spatial for m in modes})
            circ.add_delay(draw(hs.sampled_from(channels)), draw(hs.sampled_from((-1, 1, 2))))
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
        out = terms(apply(circ, state))
    except BinOverflowError:
        assert lost > 1e-12
        return
    assert max(
        (abs(out.get(k, 0.0) - fold.get(k, 0.0)) for k in set(out) | set(fold)),
        default=0.0,
    ) < 1e-12
    # a row of the transfer matrix may lose up to NORM_ATOL (1e-9) of its
    # norm before apply raises; four photons lose at most four times that
    assert lost < 1e-8
