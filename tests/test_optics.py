import math

import numpy as np
import pytest

from oracles import occupation_distribution
from qrelay.errors import BinOverflowError, ConfigError
from qrelay.fock import FockState, ModeKey, ModeRegistry, apply_creation, vacuum
from qrelay.optics import BinDelay, Circuit, apply, loss_from_db


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
    with pytest.raises(ConfigError):
        loss_from_db(-1.0)


def test_identity_beamsplitter():
    reg = _channel_registry("a", "b")
    circ = Circuit(reg)
    circ.add_beamsplitter(ModeKey("a", 0), ModeKey("b", 0), transmittance=1.0)
    st = apply_creation(vacuum(reg), ModeKey("a", 0))
    out = apply(circ, st)
    assert abs(out.amplitude([1] + [0] * (len(reg) - 1)) - 1.0) < 1e-12


def test_michelson_amplitude_map():
    # a(s,0) -> 1/2 a(s,0) + 1/2 e^{i phi} a(s,1) + i/2 l(0) - i/2 e^{i phi} l(1)
    phi = 0.83
    reg = _channel_registry("s")
    circ = Circuit(reg)
    circ.add_michelson("s", phi, loss_spatial="l")
    out = apply(circ, apply_creation(vacuum(reg), ModeKey("s", 0)))

    def amp(spatial, t):
        occ = [0] * len(reg)
        occ[reg.index(ModeKey(spatial, t))] = 1
        return out.amplitude(occ)

    e = np.exp(1j * phi)
    assert abs(amp("s", 0) - 0.5) < 1e-12
    assert abs(amp("s", 1) - 0.5 * e) < 1e-12
    assert abs(amp("l", 0) - 0.5j) < 1e-12
    assert abs(amp("l", 1) + 0.5j * e) < 1e-12
    assert abs(out.norm_sq() - 1.0) < 1e-12


def test_michelson_single_photon_split():
    reg = _channel_registry("s")
    circ = Circuit(reg)
    circ.add_michelson("s", 0.3)
    out = apply(circ, apply_creation(vacuum(reg), ModeKey("s", 0)))
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
    out = apply(circ, apply_creation(vacuum(reg), ModeKey("s", 0)))
    expect = (1.0 + math.cos(phi1 - phi2)) / 8.0
    assert abs(_bin_probability(out, "s", 1) - expect) < 1e-12
    assert abs(out.norm_sq() - 1.0) < 1e-12


def test_michelson_is_isometric_on_multiphoton_input():
    reg = _channel_registry("s")
    circ = Circuit(reg)
    circ.add_michelson("s", 0.7)
    st = vacuum(reg)
    # |1,1> across bins 0 and 1 plus a two-photon bin-0 component
    both = apply_creation(apply_creation(st, ModeKey("s", 0)), ModeKey("s", 1))
    double = apply_creation(apply_creation(st, ModeKey("s", 0)), ModeKey("s", 0))
    mix = FockState(reg, 4, {**both.terms})
    for occ, amp in double.terms.items():
        mix.terms[occ] = mix.terms.get(occ, 0.0) + amp
    mix = mix.normalize()
    assert abs(apply(circ, mix).norm_sq() - 1.0) < 1e-12


def test_loss_element_thins_photons():
    t = loss_from_db(2.0)
    reg = _channel_registry("s")
    circ = Circuit(reg)
    circ.add_channel_loss("s", t, "sink")
    two = apply_creation(
        apply_creation(vacuum(reg), ModeKey("s", 0)), ModeKey("s", 0)
    ).normalize()
    dist = occupation_distribution(apply(circ, two))
    survive2 = sum(p for occ, p in dist.items() if occ[reg.index(ModeKey("s", 0))] == 2)
    assert abs(survive2 - t**2) < 1e-12
    assert abs(apply(circ, two).norm_sq() - 1.0) < 1e-12


def test_channel_loss_skips_unity_transmittance():
    reg = _channel_registry("s")
    circ = Circuit(reg)
    circ.add_channel_loss("s", 1.0)
    assert circ.elements == []


def test_bin_delay_overflow():
    reg = _channel_registry("s", max_bins=2)
    st = apply_creation(vacuum(reg), ModeKey("s", 1))
    circ = Circuit(reg)
    circ.elements.append(BinDelay("s", 1))
    with pytest.raises(BinOverflowError):
        apply(circ, st)
    # vacuum in the last bin shifts without complaint
    ok = apply(circ, apply_creation(vacuum(reg), ModeKey("s", 0)))
    assert abs(_bin_probability(ok, "s", 1) - 1.0) < 1e-12


def test_bin_encoder_splits_evenly():
    phi = 1.9
    reg = _channel_registry("s")
    circ = Circuit(reg)
    circ.add_bin_encoder("s", phi)
    out = apply(circ, apply_creation(vacuum(reg), ModeKey("s", 0)))
    amp0 = [0] * len(reg)
    amp0[reg.index(ModeKey("s", 0))] = 1
    amp1 = [0] * len(reg)
    amp1[reg.index(ModeKey("s", 1))] = 1
    assert abs(out.amplitude(amp0) - 1 / math.sqrt(2)) < 1e-12
    assert abs(out.amplitude(amp1) - np.exp(1j * phi) / math.sqrt(2)) < 1e-12
