import math

import numpy as np
import pytest

from oracles import (
    add_beamsplitter,
    add_delay,
    amplitude,
    apply_creation,
    beamsplitter_matrix,
    from_terms,
    general_transform,
    norm_sq,
    normalized,
    occupation_distribution,
    terms,
    vacuum,
)
from qrelay.errors import QRelayError
from qrelay.fock import PRUNE_TOL, ModeKey, ModeRegistry
from qrelay.optics import COUPLER, Circuit, apply, compose, loss_from_db


def _channel_registry(*spatials, max_bins=4):
    reg = ModeRegistry(max_bins=max_bins)
    for s in spatials:
        reg.add_channel(s)
    return reg


def _bin_probability(state, spatial, time_bin):
    reg = state.registry
    idx = reg.index(ModeKey(spatial, time_bin))
    return sum(
        p for occ, p in occupation_distribution(state).items() if occ[idx] == 1
    )


def test_loss_from_db():
    assert loss_from_db(0.0) == 1.0
    assert abs(loss_from_db(2.0) - 0.63096) < 1e-4
    assert abs(loss_from_db(10.0 * math.log10(2.0)) - 0.5) < 1e-12


def test_coupler_is_the_read_only_50_50_beamsplitter():
    assert COUPLER.dtype == complex
    assert COUPLER.tobytes() == beamsplitter_matrix(0.5, 0.0).tobytes()
    with pytest.raises(ValueError):
        COUPLER[0, 1] = 1.0


def test_identity_beamsplitter():
    reg = _channel_registry("a", "b")
    circ = Circuit(reg)
    add_beamsplitter(circ, ModeKey("a", 0), ModeKey("b", 0), transmittance=1.0)
    st = apply_creation(vacuum(reg), ModeKey("a", 0))
    out = apply(circ.transfer(), st)
    assert abs(amplitude(out, [1] + [0] * (len(reg) - 1)) - 1.0) < 1e-12


def test_michelson_amplitude_map():
    # a(s,0) -> 1/2 a(s,0) + 1/2 e^{i phi} a(s,1) + i/2 l(0) - i/2 e^{i phi} l(1)
    phi = 0.83
    reg = _channel_registry("s")
    circ = Circuit(reg)
    circ.add_michelson("s", phi, loss_spatial="l")
    out = apply(circ.transfer(), apply_creation(vacuum(reg), ModeKey("s", 0)))

    def amp(spatial, t):
        occ = [0] * len(reg)
        occ[reg.index(ModeKey(spatial, t))] = 1
        return amplitude(out, occ)

    e = np.exp(1j * phi)
    assert abs(amp("s", 0) - 0.5) < 1e-12
    assert abs(amp("s", 1) - 0.5 * e) < 1e-12
    assert abs(amp("l", 0) - 0.5j) < 1e-12
    assert abs(amp("l", 1) + 0.5j * e) < 1e-12
    assert abs(norm_sq(out) - 1.0) < 1e-12


def test_michelson_single_photon_split():
    reg = _channel_registry("s")
    circ = Circuit(reg)
    circ.add_michelson("s", 0.3)
    out = apply(circ.transfer(), apply_creation(vacuum(reg), ModeKey("s", 0)))
    assert abs(_bin_probability(out, "s", 0) - 0.25) < 1e-12
    assert abs(_bin_probability(out, "s", 1) - 0.25) < 1e-12
    lost = sum(
        p
        for occ, p in occupation_distribution(out).items()
        if any(occ[i] for i in reg.indices_for("s-mich-loss"))
    )
    assert abs(lost - 0.5) < 1e-12


@pytest.mark.parametrize("phi1,phi2", [(0.0, 0.0), (0.9, 0.2), (1.1, 1.1 + math.pi)])
def test_chained_michelsons_interfere(phi1, phi2):
    # middle-bin amplitude sums short-long and long-short paths:
    # P(bin 1) = (1 + cos(phi1 - phi2)) / 8
    reg = _channel_registry("s")
    circ = Circuit(reg)
    circ.add_michelson("s", phi1, loss_spatial="la")
    circ.add_michelson("s", phi2, loss_spatial="lb")
    out = apply(circ.transfer(), apply_creation(vacuum(reg), ModeKey("s", 0)))
    expect = (1.0 + math.cos(phi1 - phi2)) / 8.0
    assert abs(_bin_probability(out, "s", 1) - expect) < 1e-12
    assert abs(norm_sq(out) - 1.0) < 1e-12


def test_michelson_is_isometric_on_multiphoton_input():
    reg = _channel_registry("s")
    circ = Circuit(reg)
    circ.add_michelson("s", 0.7)
    st = vacuum(reg)
    # |1,1> across bins 0 and 1 plus a two-photon bin-0 component
    both = apply_creation(apply_creation(st, ModeKey("s", 0)), ModeKey("s", 1))
    double = apply_creation(apply_creation(st, ModeKey("s", 0)), ModeKey("s", 0))
    mix = terms(both)
    for occ, amp in terms(double).items():
        mix[occ] = mix.get(occ, 0.0) + amp
    mix = normalized(from_terms(reg, mix))
    assert abs(norm_sq(apply(circ.transfer(), mix)) - 1.0) < 1e-12


def test_loss_element_thins_photons():
    t = loss_from_db(2.0)
    reg = _channel_registry("s")
    circ = Circuit(reg)
    circ.add_channel_loss("s", t)
    two = normalized(apply_creation(
        apply_creation(vacuum(reg), ModeKey("s", 0)), ModeKey("s", 0)
    ))
    dist = occupation_distribution(apply(circ.transfer(), two))
    survive2 = sum(p for occ, p in dist.items() if occ[reg.index(ModeKey("s", 0))] == 2)
    assert abs(survive2 - t**2) < 1e-12
    assert abs(norm_sq(apply(circ.transfer(), two)) - 1.0) < 1e-12


def test_channel_loss_skips_unity_transmittance():
    reg = _channel_registry("s")
    circ = Circuit(reg)
    circ.add_channel_loss("s", 1.0)
    assert circ.elements == []


def test_device_on_a_channel_without_modes_raises():
    # the devices read a channel's labels from its registered modes, so a
    # misspelt channel is an error, not a device that does nothing
    reg = _channel_registry("s")
    circ = Circuit(reg)
    for add in (lambda: circ.add_channel_loss("typo", 0.5), lambda: circ.add_channel_loss("typo", 1.0),
                lambda: circ.add_michelson("typo", 0.3), lambda: circ.add_bin_encoder("typo", 0.3)):
        with pytest.raises(QRelayError, match="channel 'typo' has no registered mode"):
            add()
    assert circ.elements == []
    assert len(reg) == 4


def test_bin_delay_overflow():
    reg = _channel_registry("s", max_bins=2)
    st = apply_creation(vacuum(reg), ModeKey("s", 1))
    circ = Circuit(reg)
    add_delay(circ, "s", 1)
    with pytest.raises(QRelayError, match=r"a delay pushes occupied mode .* past the last bin"):
        apply(circ.transfer(), st)
    # vacuum in the last bin shifts without complaint
    ok = apply(circ.transfer(), apply_creation(vacuum(reg), ModeKey("s", 0)))
    assert abs(_bin_probability(ok, "s", 1) - 1.0) < 1e-12


def test_delay_shifts_by_its_bin_count():
    reg = _channel_registry("s", max_bins=3)
    circ = Circuit(reg)
    add_delay(circ, "s", 2)
    out = apply(circ.transfer(), apply_creation(vacuum(reg), ModeKey("s", 0)))
    assert abs(_bin_probability(out, "s", 2) - 1.0) < 1e-12


def test_bin_encoder_splits_evenly():
    phi = 1.9
    reg = _channel_registry("s")
    circ = Circuit(reg)
    circ.add_bin_encoder("s", phi)
    out = apply(circ.transfer(), apply_creation(vacuum(reg), ModeKey("s", 0)))
    amp0 = [0] * len(reg)
    amp0[reg.index(ModeKey("s", 0))] = 1
    amp1 = [0] * len(reg)
    amp1[reg.index(ModeKey("s", 1))] = 1
    assert abs(amplitude(out, amp0) - 1 / math.sqrt(2)) < 1e-12
    assert abs(amplitude(out, amp1) - np.exp(1j * phi) / math.sqrt(2)) < 1e-12


def _random_unitary(rng, k):
    z = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _max_diff(a, b):
    return max((abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b)), default=0.0)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_apply_matches_general_transform(k):
    rng = np.random.default_rng(21 + k)
    reg = _channel_registry("a", "b", "c", "d", "e", max_bins=1)
    for _ in range(10):
        picked = rng.choice(len(reg), size=k, replace=False)
        start = {}
        for _ in range(8):
            occ = bytes(int(rng.integers(0, 3)) for _ in range(len(reg)))
            start[occ] = complex(rng.normal(), rng.normal())
        u = _random_unitary(rng, k)
        circ = Circuit(reg)
        circ.add_unitary([reg.key_at(int(i)) for i in picked], u)
        fast = terms(apply(circ.transfer(), from_terms(reg, start)))
        slow = general_transform(start, [int(i) for i in picked], u, PRUNE_TOL)
        assert _max_diff(fast, slow) < 1e-12


def test_apply_prunes_cancelled_terms():
    # Hong-Ou-Mandel: |1,1> through a 50/50 splitter leaves no (1,1) term
    reg = _channel_registry("a", "b", max_bins=1)
    circ = Circuit(reg)
    add_beamsplitter(circ, ModeKey("a", 0), ModeKey("b", 0))
    st = apply_creation(apply_creation(vacuum(reg), ModeKey("a", 0)), ModeKey("b", 0))
    assert bytes([1, 1]) not in terms(apply(circ.transfer(), st))


def test_transfer_composes_in_order_and_follows_the_registry():
    rng = np.random.default_rng(5)
    reg = _channel_registry("a", "b", max_bins=1)
    a, b = ModeKey("a", 0), ModeKey("b", 0)
    u, v = _random_unitary(rng, 2), _random_unitary(rng, 2)
    circ = Circuit(reg)
    circ.add_unitary((a, b), u)
    circ.add_unitary((b, a), v[::-1, ::-1])
    # row-is-input convention: u then v composes as u @ v
    assert np.allclose(circ.transfer(), u @ v, atol=1e-14)
    # a mode registered after the elements joins T as an identity row
    reg.add(ModeKey("c", 0))
    assert circ.transfer().shape == (3, 3)
    assert circ.transfer()[2, 2] == 1.0
    st = apply_creation(vacuum(reg), ModeKey("c", 0))
    assert terms(apply(circ.transfer(), st)) == {bytes([0, 0, 1]): 1.0}


def test_apply_rejects_a_state_narrower_than_its_registry():
    # a state has one column per registered mode: one built before a mode
    # was registered is not padded
    reg = _channel_registry("a", max_bins=1)
    st = apply_creation(vacuum(reg), ModeKey("a", 0))
    reg.add(ModeKey("b", 0))
    circ = Circuit(reg)
    add_beamsplitter(circ, ModeKey("a", 0), ModeKey("b", 0))
    with pytest.raises(QRelayError, match="a state of 1 modes and a transfer matrix of shape"):
        apply(circ.transfer(), st)


def test_apply_rejects_a_transfer_matrix_of_another_size():
    reg = _channel_registry("a", "b", max_bins=1)
    st = apply_creation(vacuum(reg), ModeKey("a", 0))
    for t in (np.eye(1), np.eye(3), np.eye(2)[:, :1]):
        with pytest.raises(QRelayError, match="a transfer matrix of shape .* on a registry of 2"):
            apply(t, st)


def test_transfer_is_composed_afresh_after_an_element_changes_in_place():
    rng = np.random.default_rng(9)
    reg = _channel_registry("a", "b")
    circ = Circuit(reg)
    circ.add_michelson("a", 0.4)
    add_beamsplitter(circ, ModeKey("a", 1), ModeKey("b", 1))
    before = circ.transfer()
    idxs, _ = circ.elements[0]
    circ.elements[0] = (idxs, _random_unitary(rng, len(idxs)))
    after = circ.transfer()
    assert np.array_equal(after, compose(circ.elements, range(len(circ.registry))))
    assert not np.allclose(after, before)
