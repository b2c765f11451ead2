import math

import numpy as np
import pytest

from oracles import (
    DetectionLayout,
    Labeled,
    add_beamsplitter,
    apply_creation,
    click_distribution,
    coincidence_probability,
    emit_pairs_entangled,
    from_terms,
    herald_filter,
    normalized,
    psi_minus_filter,
    teleport_clicks,
    teleport_outcome_distribution,
    terms,
    vacuum,
)
from qrelay import scenarios
from qrelay.detection import (
    BOB_BIN,
    Detector,
    TimingBudget,
    bell_patterns,
    coincidence_clicks,
    validate_timing,
)
from qrelay.errors import ConfigError, QRelayError
from qrelay.fock import BRANCH_RECORD, FockState, ModeKey, ModeRegistry
from qrelay.optics import Circuit, apply


def _registry(*spatials, max_bins=2):
    reg = ModeRegistry(max_bins=max_bins)
    for s in spatials:
        reg.add_channel(s)
    return reg


def _marginal(dist, gate):
    return sum(p for pattern, p in dist.items() if gate in pattern)


def test_unit_efficiency_always_clicks():
    reg = _registry("a")
    st = apply_creation(vacuum(reg), ModeKey("a", 0))
    layout = DetectionLayout([Labeled("d", Detector("a"))])
    dist = click_distribution([(1.0, st)], layout)
    assert dist == {frozenset({("d", 0)}): 1.0}


def test_vacuum_dark_counts_factorize():
    d = 0.01
    reg = _registry("a", max_bins=4)
    layout = DetectionLayout([Labeled("d", Detector("a", dark_prob=d))])
    dist = click_distribution([(1.0, vacuum(reg))], layout)
    assert abs(dist[frozenset()] - (1 - d) ** 4) < 1e-12
    assert abs(sum(dist.values()) - 1.0) < 1e-9


def test_click_probability_inclusion_exclusion():
    reg = _registry("a")
    st = apply_creation(vacuum(reg), ModeKey("a", 0))
    det = Detector("a", efficiency=0.1, dark_prob=1e-4)
    layout = DetectionLayout([Labeled("d", det)])
    dist = click_distribution([(1.0, st)], layout)
    expect = 1.0 - (1.0 - 0.1) * (1.0 - 1e-4)
    assert abs(_marginal(dist, ("d", 0)) - expect) < 1e-12
    assert abs(sum(dist.values()) - 1.0) < 1e-9


def test_thinning_matches_explicit_loss_element():
    # P(no click | n) = (1 - eta)^n must equal a loss of transmittance eta
    # followed by a perfect threshold detector
    eta = 0.37
    reg = _registry("a")
    two = normalized(apply_creation(
        apply_creation(vacuum(reg), ModeKey("a", 0)), ModeKey("a", 0)
    ))
    layout = DetectionLayout([Labeled("d", Detector("a", efficiency=eta))])
    p_thin = _marginal(click_distribution([(1.0, two)], layout), ("d", 0))

    reg2 = _registry("a")
    circ = Circuit(reg2)
    circ.add_channel_loss("a", eta)
    two2 = normalized(apply_creation(
        apply_creation(vacuum(reg2), ModeKey("a", 0)), ModeKey("a", 0)
    ))
    lossy = apply(circ.transfer(), two2)
    ideal = DetectionLayout([Labeled("d", Detector("a"))])
    p_loss = _marginal(click_distribution([(1.0, lossy)], ideal), ("d", 0))
    assert abs(p_thin - p_loss) < 1e-12
    assert abs(p_thin - (1.0 - (1.0 - eta) ** 2)) < 1e-12


def test_follower_gates_need_an_opener_click():
    reg = _registry("a", "b", max_bins=3)
    layout = DetectionLayout(
        [
            Labeled("ge", Detector("a")),
            Labeled("in", Detector("b", dark_prob=0.2), follows="ge"),
        ]
    )
    # opener never clicks on vacuum, so the follower's dark counts never fire
    dist = click_distribution([(1.0, vacuum(reg))], layout)
    assert dist == {frozenset(): 1.0}


def test_follower_dark_fires_only_after_opener():
    reg = _registry("a", "b", max_bins=3)
    st = apply_creation(vacuum(reg), ModeKey("a", 0))
    layout = DetectionLayout(
        [
            Labeled("ge", Detector("a")),
            Labeled("in", Detector("b", dark_prob=0.25), follows="ge"),
        ]
    )
    dist = click_distribution([(1.0, st)], layout)
    assert abs(dist[frozenset({("ge", 0)})] - 0.75) < 1e-12
    assert abs(dist[frozenset({("ge", 0), ("in", 1)})] - 0.25) < 1e-12


def test_layout_validation():
    with pytest.raises(ConfigError):
        DetectionLayout(
            [
                Labeled("d", Detector("a")),
                Labeled("d", Detector("b")),
            ]
        )
    with pytest.raises(ConfigError):
        DetectionLayout([Labeled("d", Detector("a"), follows="ghost")])


def test_ensemble_weights_must_sum_to_one():
    reg = _registry("a")
    layout = DetectionLayout([Labeled("d", Detector("a"))])
    with pytest.raises(QRelayError, match="ensemble weights sum to 0.5, not 1"):
        click_distribution([(0.5, vacuum(reg))], layout)


def test_psi_minus_filter_rules():
    assert psi_minus_filter(frozenset({("bsa-ge", 0), ("bsa-ingaas", 1)}))
    assert psi_minus_filter(frozenset({("bsa-ingaas", 1), ("bsa-ge", 2)}))
    assert not psi_minus_filter(frozenset({("bsa-ge", 0), ("bsa-ge", 1)}))
    assert not psi_minus_filter(frozenset({("bsa-ge", 0), ("bsa-ingaas", 2)}))
    assert not psi_minus_filter(
        frozenset({("bsa-ge", 0), ("bsa-ingaas", 1), ("bsa-ge", 2)})
    )
    # clicks outside the clock window are not a valid pair
    assert not psi_minus_filter(frozenset({("bsa-ge", 2), ("bsa-ingaas", 3)}))
    # other detectors' clicks are ignored
    assert psi_minus_filter(frozenset({("bsa-ge", 0), ("bsa-ingaas", 1), ("herald", 0)}))


def test_herald_filter():
    assert herald_filter(frozenset({("herald", 0)}))
    assert not herald_filter(frozenset())
    assert herald_filter(frozenset(), enabled=False)


def _bell_state(reg, sign):
    # (a0 c1 + sign a1 c0)/sqrt(2)
    st = vacuum(reg)
    t1 = apply_creation(apply_creation(st, ModeKey("a", 0)), ModeKey("c", 1))
    t2 = apply_creation(apply_creation(st, ModeKey("a", 1)), ModeKey("c", 0))
    joint = terms(t1)
    for occ, amp in terms(t2).items():
        joint[occ] = joint.get(occ, 0.0) + sign * amp
    return normalized(from_terms(reg, joint))


def _phi_plus(reg):
    st = vacuum(reg)
    t1 = apply_creation(apply_creation(st, ModeKey("a", 0)), ModeKey("c", 0))
    t2 = apply_creation(apply_creation(st, ModeKey("a", 1)), ModeKey("c", 1))
    joint = terms(t1)
    for occ, amp in terms(t2).items():
        joint[occ] = joint.get(occ, 0.0) + amp
    return normalized(from_terms(reg, joint))


def _bsa_circuit(reg):
    circ = Circuit(reg)
    for t in range(reg.max_bins):
        add_beamsplitter(circ, ModeKey("a", t), ModeKey("c", t))
    return circ


def _ideal_bsa_outcome(state, symmetric):
    bob = Detector("dump", dark_prob=0.0)
    return teleport_outcome_distribution(state, Detector("a"), Detector("c"), bob,
                                         free_partner=symmetric)


def test_antisymmetric_state_always_accepted():
    reg = _registry("a", "c", "dump", max_bins=4)
    psi = apply(_bsa_circuit(reg).transfer(), _bell_state(reg, -1.0))
    assert abs(_ideal_bsa_outcome(psi, True).accept[0] - 1.0) < 1e-12
    # the one-way trigger keeps only one of the two time orderings
    assert abs(_ideal_bsa_outcome(psi, False).accept[0] - 0.5) < 1e-12


def test_teleport_clicks_needs_the_clock_window_and_bob_bins():
    reg = _registry("a", "c", "b")
    ge, ingaas, bob = Detector("a"), Detector("c"), Detector("b")
    with pytest.raises(QRelayError, match=r"registry bins do not hold bins \[0, 1, 2\]"):
        teleport_clicks(reg, vacuum(reg).occupations, ge, ingaas, bob, free_partner=False)


@pytest.mark.parametrize("heralded", [False, True])
@pytest.mark.parametrize("free_partner", [False, True])
@pytest.mark.parametrize("dark", [1e-12, 1e-5, 0.3])
def test_teleport_clicks_match_40_digit_products(dark, free_partner, heralded):
    # a dark-only click is d itself, not 1 - (1 - d), whose rounding is
    # 8.9e-5 of d at d = 1e-12
    mpmath = pytest.importorskip("mpmath")
    reg = _registry("a", "c", "b", "h", max_bins=3)
    etas = {"a": 0.1, "c": 0.2, "b": 0.3, "h": 0.4}
    ge, ingaas, bob, herald = (Detector(s, etas[s], dark) for s in ("a", "c", "b", "h"))
    # the vacuum, and one photon in each detector's gate of one bin
    photons = [None, ModeKey("a", 0), ModeKey("c", 1), ModeKey("b", 1), ModeKey("h", 0)]
    occupations = np.zeros((len(photons), len(reg)), dtype=np.uint8)
    for row, key in enumerate(photons[1:], start=1):
        occupations[row, reg.index(key)] = 1
    accept, bob_clicks = teleport_clicks(reg, occupations, ge, ingaas, bob,
                                         herald if heralded else None, free_partner=free_partner)
    spatials = ("a", "c", "b", "h")
    with mpmath.workdps(40):
        d = mpmath.mpf(dark)

        def miss(key, channel, t):
            eta = mpmath.mpf(etas[spatials[channel]])
            n = int(key == ModeKey(spatials[channel], t))
            return (1 - d) * (1 - eta) ** n

        for row, key in enumerate(photons):
            expected = mpmath.fsum(
                mpmath.fprod([miss(key, *g) for g in dark_gates]
                             + [1 - miss(key, *g) for g in click])
                for click, dark_gates in bell_patterns(free_partner, 3, heralded)
            )
            assert abs(accept[row] - expected) <= 1e-14 * expected
            with_bob = expected * (1 - miss(key, 2, BOB_BIN))
            assert abs(bob_clicks[row] - with_bob) <= 1e-14 * with_bob


@pytest.mark.parametrize("dark", [1e-12, 1e-5, 0.3])
def test_coincidence_clicks_match_40_digit_products(dark):
    # a dark-only click is d itself, not 1 - (1 - d), whose rounding is
    # 8.9e-5 of d at d = 1e-12
    mpmath = pytest.importorskip("mpmath")
    reg = _registry("a", "c", max_bins=3)
    etas = {"a": 0.1, "c": 0.2}
    det_a, det_c = (Detector(s, etas[s], dark) for s in ("a", "c"))
    # the vacuum, and one photon in each detector's gate of one bin
    photons = [None, ModeKey("a", 0), ModeKey("c", 1)]
    occupations = np.zeros((len(photons), len(reg)), dtype=np.uint8)
    for row, key in enumerate(photons[1:], start=1):
        occupations[row, reg.index(key)] = 1
    clicks = coincidence_clicks(reg, occupations, det_a, det_c)
    assert clicks.shape == (len(photons), 3)
    with mpmath.workdps(40):
        d = mpmath.mpf(dark)

        def click(key, spatial, t):
            eta = mpmath.mpf(etas[spatial])
            return 1 - (1 - d) * (1 - eta) ** int(key == ModeKey(spatial, t))

        for row, key in enumerate(photons):
            for t in range(3):
                expected = click(key, "a", t) * click(key, "c", t)
                assert abs(clicks[row, t] - expected) <= 1e-14 * expected


def _pattern_set(patterns):
    return {(frozenset(click), frozenset(dark)) for click, dark in patterns}


def test_bell_patterns_of_the_relay():
    # gates are (channel, bin) over (ge, ingaas, bob, herald) = (0, 1, 2, 3)
    n_bins = scenarios._relay_registry().max_bins
    assert n_bins == 3
    # an armed partner: ge alone at t, the partner at t + 1, no partner veto
    assert _pattern_set(bell_patterns(False, n_bins, False)) == {
        (frozenset({(0, 0), (1, 1)}), frozenset({(0, 1), (0, 2)})),
        (frozenset({(0, 1), (1, 2)}), frozenset({(0, 0), (0, 2)})),
    }
    # a free partner: both orderings, each detector alone on its gate
    assert _pattern_set(bell_patterns(True, n_bins, False)) == {
        (frozenset({(0, 0), (1, 1)}), frozenset({(0, 1), (0, 2), (1, 0), (1, 2)})),
        (frozenset({(1, 0), (0, 1)}), frozenset({(0, 0), (0, 2), (1, 1), (1, 2)})),
        (frozenset({(0, 1), (1, 2)}), frozenset({(0, 0), (0, 2), (1, 0), (1, 1)})),
        (frozenset({(1, 1), (0, 2)}), frozenset({(0, 0), (0, 1), (1, 0), (1, 2)})),
    }
    # a heralded run adds the herald gate to every click set
    for free_partner in (False, True):
        plain = bell_patterns(free_partner, n_bins, False)
        heralded = bell_patterns(free_partner, n_bins, True)
        assert _pattern_set(heralded) == {
            (frozenset(click) | {(3, 0)}, frozenset(dark)) for click, dark in plain
        }
        for click, dark in plain + heralded:
            assert not set(click) & set(dark)


def test_symmetric_states_never_accepted():
    reg = _registry("a", "c", "dump", max_bins=4)
    for st in (_bell_state(reg, +1.0), _phi_plus(reg)):
        out = apply(_bsa_circuit(reg).transfer(), st)
        assert _ideal_bsa_outcome(out, True).accept[0] < 1e-12


def test_qubit_against_pair_acceptance_is_one_quarter():
    # time-bin qubit meeting one half of a two-bin entangled pair on a 50/50
    # splitter: the antisymmetric pattern carries exactly 1/4 of the weight,
    # independent of the qubit and pump phases
    for phi_a, phi_p in ((0.0, 0.0), (0.7, 0.0), (1.3, 2.1)):
        reg = ModeRegistry(max_bins=4)
        for s in ("a", "c", "bob"):
            reg.add_channel(s)
        st = emit_pairs_entangled(vacuum(reg), "c", "bob", 1, phase=phi_p)
        joint = {}
        for o, amp in terms(st).items():
            n = bytearray(o)
            n[reg.index(ModeKey("a", 0))] += 1
            joint[bytes(n)] = joint.get(bytes(n), 0.0) + amp / math.sqrt(2)
            n2 = bytearray(o)
            n2[reg.index(ModeKey("a", 1))] += 1
            joint[bytes(n2)] = joint.get(bytes(n2), 0.0) + amp * np.exp(1j * phi_a) / math.sqrt(2)
        joint = normalized(from_terms(reg, joint))
        out = apply(_bsa_circuit(reg).transfer(), joint)
        res = teleport_outcome_distribution(out, Detector("a"), Detector("c"), Detector("bob"),
                                            free_partner=True)
        assert abs(res.accept[0] - 0.25) < 1e-12
        # without an analyzing interferometer Bob's arrival bin carries no
        # phase information: his second bin holds half the accepted weight
        assert abs(res.bob[0] - 0.125) < 1e-12


def test_dark_only_acceptance_oracle():
    # vacuum, asymmetric trigger, dark d on both detectors:
    # P = sum_t P(ge fires exactly at t) * d, t in {0, 1}
    d = 0.01
    reg = _registry("a", "c", "dump", max_bins=4)
    ge, ingaas = Detector("a", dark_prob=d), Detector("c", dark_prob=d)
    out = teleport_outcome_distribution(vacuum(reg), ge, ingaas, Detector("dump"),
                                        free_partner=False)
    expect = 2.0 * d * (1 - d) ** 3 * d
    assert abs(out.accept[0] - expect) < 1e-15


def test_dark_only_acceptance_is_monotone():
    reg = _registry("a", "c", "dump", max_bins=4)
    bob = Detector("dump")
    last = -1.0
    for d in (0.0, 1e-4, 1e-3, 1e-2, 0.05):
        ge, ingaas = Detector("a", dark_prob=d), Detector("c", dark_prob=d)
        out = teleport_outcome_distribution(vacuum(reg), ge, ingaas, bob, free_partner=False)
        assert out.accept[0] >= last
        last = out.accept[0]


def test_coincidence_probability_independent_gates():
    reg = _registry("a", "c")
    st = apply_creation(apply_creation(vacuum(reg), ModeKey("a", 0)), ModeKey("c", 0))
    da = Detector("a", efficiency=0.5)
    db = Detector("c", efficiency=0.25)
    # one branch, two bins: both photons sit in bin 0
    assert np.allclose(coincidence_probability(st, da, db), [[0.125, 0.0]], rtol=0, atol=1e-12)


def test_each_branch_of_a_record_mixture_must_be_normalized():
    reg = _registry("a", "c")
    rec = reg.add(BRANCH_RECORD)
    occ = np.zeros((2, len(reg)), dtype=np.uint8)
    occ[1, rec] = 1
    da = Detector("a", dark_prob=0.5)
    db = Detector("c", dark_prob=0.5)
    # two vacuum branches: each is normalized on its own, though the rows
    # together carry norm^2 2
    per_branch = coincidence_probability(FockState(reg, occ, [1.0, 1.0]), da, db)
    assert np.allclose(per_branch, np.full((2, 2), 0.25), rtol=0, atol=1e-15)
    with pytest.raises(QRelayError, match=r"^branch 1 has norm\^2 = "):
        coincidence_probability(FockState(reg, occ, [1.0, 0.5]), da, db)
    # a record that skips branch 1 leaves that branch empty
    occ[1, rec] = 2
    with pytest.raises(QRelayError, match=r"^branch 1 has norm\^2 = "):
        coincidence_probability(FockState(reg, occ, [1.0, 1.0]), da, db)


def test_timing_budget_defaults():
    slack = validate_timing(TimingBudget())
    assert abs(slack - 1.241415460825234e-07) < 1e-12
    assert slack > 0


def test_timing_budget_no_bob_spool_is_late():
    slack = validate_timing(TimingBudget(bob_spool_m=0.0))
    assert abs(slack - (-1.1000386832946945e-06)) < 1e-12
    assert slack < 0


def test_timing_latency_linearity():
    base = validate_timing(TimingBudget())
    no_latency = validate_timing(TimingBudget(decision_latency_s=0.0))
    assert abs(no_latency - base - 220e-9) < 1e-15


def test_timing_budget_rejects_negative_lengths():
    with pytest.raises(ConfigError):
        TimingBudget(bob_spool_m=-1.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("group_index", 0.0),
        ("group_index", -1.0),
        ("decision_latency_s", -1e-9),
        ("decision_latency_s", float("nan")),
        ("quantum_fiber_m", float("nan")),
    ],
)
def test_timing_budget_rejects_unphysical_values(field, value):
    with pytest.raises(ConfigError):
        TimingBudget(**{field: value})
