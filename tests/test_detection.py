import math

import numpy as np
import pytest

from oracles import (
    DetectionLayout,
    apply_creation,
    click_distribution,
    from_terms,
    herald_filter,
    normalized,
    psi_minus_filter,
    terms,
)
from qrelay.detection import (
    DetectorChannel,
    DetectorModel,
    TimingBudget,
    coincidence_probability,
    teleport_outcome_distribution,
    validate_timing,
)
from qrelay.errors import ConfigError, UnnormalizedStateError
from qrelay.fock import BRANCH_RECORD, FockState, ModeKey, ModeRegistry, vacuum
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
    layout = DetectionLayout([DetectorChannel(DetectorModel("d"), "a")])
    dist = click_distribution([(1.0, st)], layout)
    assert dist == {frozenset({("d", 0)}): 1.0}


def test_vacuum_dark_counts_factorize():
    d = 0.01
    reg = _registry("a", max_bins=4)
    layout = DetectionLayout([DetectorChannel(DetectorModel("d", dark_prob=d), "a")])
    dist = click_distribution([(1.0, vacuum(reg))], layout)
    assert abs(dist[frozenset()] - (1 - d) ** 4) < 1e-12
    assert abs(sum(dist.values()) - 1.0) < 1e-9


def test_click_probability_inclusion_exclusion():
    reg = _registry("a")
    st = apply_creation(vacuum(reg), ModeKey("a", 0))
    det = DetectorModel("d", efficiency=0.1, dark_prob=1e-4)
    layout = DetectionLayout([DetectorChannel(det, "a")])
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
    layout = DetectionLayout([DetectorChannel(DetectorModel("d", efficiency=eta), "a")])
    p_thin = _marginal(click_distribution([(1.0, two)], layout), ("d", 0))

    reg2 = _registry("a")
    circ = Circuit(reg2)
    circ.add_channel_loss("a", eta, "sink")
    two2 = normalized(apply_creation(
        apply_creation(vacuum(reg2), ModeKey("a", 0)), ModeKey("a", 0)
    ))
    lossy = apply(circ, two2)
    ideal = DetectionLayout([DetectorChannel(DetectorModel("d"), "a")])
    p_loss = _marginal(click_distribution([(1.0, lossy)], ideal), ("d", 0))
    assert abs(p_thin - p_loss) < 1e-12
    assert abs(p_thin - (1.0 - (1.0 - eta) ** 2)) < 1e-12


def test_follower_gates_need_an_opener_click():
    reg = _registry("a", "b", max_bins=3)
    layout = DetectionLayout(
        [
            DetectorChannel(DetectorModel("ge"), "a"),
            DetectorChannel(DetectorModel("in", dark_prob=0.2), "b", follows="ge"),
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
            DetectorChannel(DetectorModel("ge"), "a"),
            DetectorChannel(DetectorModel("in", dark_prob=0.25), "b", follows="ge"),
        ]
    )
    dist = click_distribution([(1.0, st)], layout)
    assert abs(dist[frozenset({("ge", 0)})] - 0.75) < 1e-12
    assert abs(dist[frozenset({("ge", 0), ("in", 1)})] - 0.25) < 1e-12


def test_layout_validation():
    with pytest.raises(ConfigError):
        DetectionLayout(
            [
                DetectorChannel(DetectorModel("d"), "a"),
                DetectorChannel(DetectorModel("d"), "b"),
            ]
        )
    with pytest.raises(ConfigError):
        DetectionLayout([DetectorChannel(DetectorModel("d"), "a", follows="ghost")])
    with pytest.raises(ConfigError):
        DetectorModel("d", efficiency=1.5)
    with pytest.raises(ConfigError):
        DetectorModel("d", dark_prob=1.0)


def test_ensemble_weights_must_sum_to_one():
    reg = _registry("a")
    layout = DetectionLayout([DetectorChannel(DetectorModel("d"), "a")])
    with pytest.raises(UnnormalizedStateError):
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
        circ.add_beamsplitter(ModeKey("a", t), ModeKey("c", t))
    return circ


def _ideal_bsa_outcome(state, symmetric):
    ge = DetectorChannel(DetectorModel("bsa-ge"), "a")
    ingaas = DetectorChannel(
        DetectorModel("bsa-ingaas"), "c", follows=None if symmetric else "bsa-ge"
    )
    bob = DetectorChannel(DetectorModel("bob", dark_prob=0.0), "dump")
    return teleport_outcome_distribution(state, ge, ingaas, bob)


def test_antisymmetric_state_always_accepted():
    reg = _registry("a", "c", "dump", max_bins=4)
    psi = apply(_bsa_circuit(reg), _bell_state(reg, -1.0))
    assert abs(_ideal_bsa_outcome(psi, True).accept[0] - 1.0) < 1e-12
    # the one-way trigger keeps only one of the two time orderings
    assert abs(_ideal_bsa_outcome(psi, False).accept[0] - 0.5) < 1e-12


def test_free_running_partner_accepts_both_orderings():
    # the partner's own follows field, not a separate flag, picks the model
    reg = _registry("a", "c", "dump", max_bins=4)
    psi = apply(_bsa_circuit(reg), _bell_state(reg, -1.0))
    ge = DetectorChannel(DetectorModel("bsa-ge"), "a")
    ingaas = DetectorChannel(DetectorModel("bsa-ingaas"), "c", follows=None)
    bob = DetectorChannel(DetectorModel("bob"), "dump")
    out = teleport_outcome_distribution(psi, ge, ingaas, bob)
    assert abs(out.accept[0] - 1.0) < 1e-12


def test_bsa_partner_must_follow_the_free_running_detector():
    reg = _registry("a", "c", "dump")
    bob = DetectorChannel(DetectorModel("bob"), "dump")
    ge = DetectorChannel(DetectorModel("bsa-ge"), "a")
    stray = DetectorChannel(DetectorModel("bsa-ingaas"), "c", follows="herald")
    with pytest.raises(ConfigError):
        teleport_outcome_distribution(vacuum(reg), ge, stray, bob)
    armed_ge = DetectorChannel(DetectorModel("bsa-ge"), "a", follows="bsa-ingaas")
    ingaas = DetectorChannel(DetectorModel("bsa-ingaas"), "c")
    with pytest.raises(ConfigError):
        teleport_outcome_distribution(vacuum(reg), armed_ge, ingaas, bob)


def test_symmetric_states_never_accepted():
    reg = _registry("a", "c", "dump", max_bins=4)
    for st in (_bell_state(reg, +1.0), _phi_plus(reg)):
        out = apply(_bsa_circuit(reg), st)
        assert _ideal_bsa_outcome(out, True).accept[0] < 1e-12


def test_qubit_against_pair_acceptance_is_one_quarter():
    # time-bin qubit meeting one half of a two-bin entangled pair on a 50/50
    # splitter: the antisymmetric pattern carries exactly 1/4 of the weight,
    # independent of the qubit and pump phases
    from qrelay.sources import emit_pairs_entangled

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
        out = apply(_bsa_circuit(reg), joint)
        ge = DetectorChannel(DetectorModel("bsa-ge"), "a")
        ingaas = DetectorChannel(DetectorModel("bsa-ingaas"), "c")
        bobdet = DetectorChannel(DetectorModel("bob"), "bob")
        res = teleport_outcome_distribution(out, ge, ingaas, bobdet)
        assert abs(res.accept[0] - 0.25) < 1e-12
        # without an analyzing interferometer Bob's arrival bin carries no
        # phase information: the accepted weight splits evenly over his bins
        assert abs(res.bob[0, 0] - 0.125) < 1e-12
        assert abs(res.bob[0, 1] - 0.125) < 1e-12
        assert abs(res.bob[0, 2]) < 1e-12


def test_dark_only_acceptance_oracle():
    # vacuum, asymmetric trigger, dark d on both detectors:
    # P = sum_t P(ge fires exactly at t) * d, t in {0, 1}
    d = 0.01
    reg = _registry("a", "c", "dump", max_bins=4)
    ge = DetectorChannel(DetectorModel("bsa-ge", dark_prob=d), "a")
    ingaas = DetectorChannel(DetectorModel("bsa-ingaas", dark_prob=d), "c", follows="bsa-ge")
    bob = DetectorChannel(DetectorModel("bob"), "dump")
    out = teleport_outcome_distribution(vacuum(reg), ge, ingaas, bob)
    expect = 2.0 * d * (1 - d) ** 3 * d
    assert abs(out.accept[0] - expect) < 1e-15


def test_dark_only_acceptance_is_monotone():
    reg = _registry("a", "c", "dump", max_bins=4)
    bob = DetectorChannel(DetectorModel("bob"), "dump")
    last = -1.0
    for d in (0.0, 1e-4, 1e-3, 1e-2, 0.05):
        ge = DetectorChannel(DetectorModel("bsa-ge", dark_prob=d), "a")
        ingaas = DetectorChannel(DetectorModel("bsa-ingaas", dark_prob=d), "c", follows="bsa-ge")
        out = teleport_outcome_distribution(vacuum(reg), ge, ingaas, bob)
        assert out.accept[0] >= last
        last = out.accept[0]


def test_coincidence_probability_independent_gates():
    reg = _registry("a", "c")
    st = apply_creation(apply_creation(vacuum(reg), ModeKey("a", 0)), ModeKey("c", 0))
    da = DetectorChannel(DetectorModel("da", efficiency=0.5), "a")
    db = DetectorChannel(DetectorModel("db", efficiency=0.25), "c")
    # one branch, two bins: both photons sit in bin 0
    assert np.allclose(coincidence_probability(st, da, db), [[0.125, 0.0]], rtol=0, atol=1e-12)


def test_each_branch_of_a_record_mixture_must_be_normalized():
    reg = _registry("a", "c")
    rec = reg.add(BRANCH_RECORD)
    occ = np.zeros((2, len(reg)), dtype=np.uint8)
    occ[1, rec] = 1
    da = DetectorChannel(DetectorModel("da", dark_prob=0.5), "a")
    db = DetectorChannel(DetectorModel("db", dark_prob=0.5), "c")
    # two vacuum branches: each is normalized on its own, though the rows
    # together carry norm^2 2
    per_branch = coincidence_probability(FockState(reg, occ, [1.0, 1.0]), da, db)
    assert np.allclose(per_branch, np.full((2, 2), 0.25), rtol=0, atol=1e-15)
    with pytest.raises(UnnormalizedStateError, match="branch 1"):
        coincidence_probability(FockState(reg, occ, [1.0, 0.5]), da, db)
    # a record that skips branch 1 leaves that branch empty
    occ[1, rec] = 2
    with pytest.raises(UnnormalizedStateError, match="branch 1"):
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
