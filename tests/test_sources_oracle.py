"""Property tests: the relay's closed-form pair table in qrelay.sources, and
the branch components that qrelay.scenarios writes from it, against the
creation-operator loops in tests/oracles.py, which apply the two-photon
emission operator n times and normalize."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

import oracles  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as hs  # noqa: E402
from oracles import norm_sq, terms, vacuum  # noqa: E402
from qrelay import scenarios  # noqa: E402
from qrelay.fock import BRANCH_RECORD, FockState, ModeKey, ModeRegistry  # noqa: E402
from qrelay.sources import entangled_pairs  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

XI = hs.one_of(hs.just(0.0), hs.just(1.0), hs.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
PHASE = hs.floats(-math.pi, math.pi)


def _registry():
    reg = ModeRegistry(max_bins=2)
    reg.add_channel("sig")
    reg.add_channel("idl")
    return reg


def _max_diff(a, b):
    a, b = terms(a), terms(b)
    return max((abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b)), default=0.0)


@PROPERTY_SETTINGS
@given(n=hs.integers(0, 4), phase=PHASE, bins=hs.sampled_from(((0, 1), (1, 0), (0,), (1,))))
def test_entangled_matches_creation_operator_oracle(n, phase, bins):
    reg = _registry()
    pairs, amps = entangled_pairs(n, len(bins), phase)
    occ = np.zeros((len(amps), len(reg)), dtype=np.uint8)
    for spatial in ("sig", "idl"):
        occ[:, [reg.index(ModeKey(spatial, b)) for b in bins]] = pairs
    closed = FockState(reg, occ, amps)
    oracle = oracles.emit_pairs_entangled(vacuum(reg), "sig", "idl", n, bins, phase)
    assert _max_diff(closed, oracle) < 1e-12
    assert abs(norm_sq(closed) - 1.0) < 1e-12


@PROPERTY_SETTINGS
@given(na=hs.integers(0, 4), nc=hs.integers(0, 4), xi=XI, phase=PHASE,
       relay_bins=hs.sampled_from(((0,), (0, 1))))
def test_relay_after_single_bin_matches_oracle(na, nc, xi, phase, relay_bins):
    # the components of one (na, nc) branch, each scaled by the square root
    # of its overlap weight and with its record cleared, add up to the
    # coherent state that Alice's pairs at overlap xi and then the relay's
    # pairs make
    reg = scenarios._relay_registry()
    components = scenarios._components([(na, nc)])
    mixture = scenarios._branch_mixture(reg, components, relay_bins, phase)
    weights = scenarios._overlap_weights(components, xi * xi)
    record = reg.index(BRANCH_RECORD)
    mixture.amplitudes *= np.sqrt(weights)[mixture.occupations[:, record]]
    mixture.occupations[:, record] = 0
    oracle = oracles.overlap_mixture(reg, [(na, nc)], xi, relay_bins, phase)
    assert _max_diff(mixture, oracle) < 1e-12
    assert abs(norm_sq(mixture) - 1.0) < 1e-12
