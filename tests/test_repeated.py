"""Repeated game: discounting, deviation values, trigger thresholds."""
import pytest
from hypothesis import given, settings, strategies as st

from icpower import (CooperationNotRationalError, DiscountSpec, PowerProfile,
                     TriggerPolicy, Weights, best_response_ee, deviation_payoff,
                     discounted_utility, ee_utility, min_discount, nash_equilibrium,
                     simulate_trigger, social_optimum)
from icpower.repeated import _min_discount_from_utilities, trigger_csv_rows


@pytest.fixture(scope="module")
def policy(so_point, ne_report):
    return TriggerPolicy(cooperate_profile=so_point.profile,
                         punish_profile=ne_report.solution)


@pytest.fixture(scope="module")
def games(ref_model, policy, symmetric_model):
    so = social_optimum(symmetric_model, Weights((0.5, 0.5)))
    symmetric = TriggerPolicy(so.profile, nash_equilibrium(symmetric_model).profile)
    return {"reference": (ref_model, policy), "symmetric": (symmetric_model, symmetric)}


def stage_by_stage(model, policy, spec, deviant, deviate_at, stages):
    """Discounted payoffs and CSV rows with every stage's utilities evaluated
    afresh: the trigger path written out in full."""
    coop = policy.cooperate_profile.powers
    path = [coop]
    if deviant is not None:
        dev = list(coop)
        dev[deviant] = best_response_ee(model, coop, deviant)
        path = [coop] * deviate_at + [tuple(dev), policy.punish_profile.powers]
    ks = range(2)
    payoffs = tuple(discounted_utility([ee_utility(model, prof, k) for prof in path],
                                       spec) for k in ks)
    running = [0.0] * 2
    rows = []
    for n in range(stages):
        prof = path[n] if n < len(path) else path[-1]
        stage_u = [ee_utility(model, prof, k) for k in ks]
        for k in ks:
            running[k] += spec.delta ** n * stage_u[k]
        rows.append([n, *prof, *stage_u, *running])
    return payoffs, rows


class TestTypes:
    def test_profile_length_mismatch(self):
        # a policy holds two profiles, and each is a pair by type
        with pytest.raises(ValueError, match=r"^profile has 1 entries, model has 2 players$"):
            TriggerPolicy(PowerProfile((1.0, 1.0)), PowerProfile((1.0,)))

    def test_policy_checked_against_cap(self, ref_model):
        policy = TriggerPolicy(PowerProfile((6.0, 1.0)), PowerProfile((1.0, 1.0)))
        with pytest.raises(ValueError, match="power_cap"):
            min_discount(ref_model, policy)

    def test_discount_spec_validation(self):
        with pytest.raises(ValueError, match="delta"):
            DiscountSpec(delta=1.5)
        with pytest.raises(ValueError, match="delta"):
            DiscountSpec(delta=-0.1)


class TestDiscountedUtility:
    def test_delta_zero_keeps_stage_zero(self):
        assert discounted_utility([3.0, 9.0], DiscountSpec(delta=0.0)) == 3.0

    def test_infinite_constant_stream_is_exact(self):
        for d in (0.0, 0.3, 0.9, 0.999):
            assert discounted_utility([0.7], DiscountSpec(delta=d)) == 0.7

    def test_infinite_two_phase_closed_form(self):
        d = 0.8
        got = discounted_utility([2.0, 1.0], DiscountSpec(delta=d))
        assert got == pytest.approx((1 - d) * 2.0 + d * 1.0, rel=1e-15)

    def test_delta_one_infinite_rejected(self):
        with pytest.raises(ValueError, match="< 1"):
            discounted_utility([1.0], DiscountSpec(delta=1.0))

    @given(u=st.floats(min_value=0.0, allow_infinity=False),
           d=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    def test_one_entry_stream_is_its_value_bit_for_bit(self, u, d):
        assert discounted_utility([u], DiscountSpec(delta=d)).hex() == u.hex()

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            discounted_utility([], DiscountSpec(delta=0.5))

    @settings(max_examples=40, deadline=None)
    @given(d=st.floats(min_value=0.0, max_value=0.95),
           head=st.lists(st.floats(min_value=0.0, max_value=2.0),
                         min_size=1, max_size=4),
           tail=st.floats(min_value=0.0, max_value=2.0))
    def test_closed_form_matches_long_partial_sum(self, d, head, tail):
        stream = head + [tail]
        got = discounted_utility(stream, DiscountSpec(delta=d))
        expanded = [stream[n] if n < len(stream) else tail for n in range(10_000)]
        partial = (1 - d) * sum(d ** n * u for n, u in enumerate(expanded))
        assert abs(got - partial) <= 1e-9


class TestDeviation:
    def test_deviating_never_pays_less_than_conforming(self, ref_model, policy,
                                                       so_point):
        for k in range(2):
            assert deviation_payoff(ref_model, policy, k) >= so_point.utilities[k]

    def test_reference_deviations_strictly_profitable(self, ref_model, policy):
        # one-shot defection from the cooperative point beats it for both
        assert deviation_payoff(ref_model, policy, 0) > 0.278
        assert deviation_payoff(ref_model, policy, 1) > 0.446

    def test_mutual_best_response_has_no_gain(self, ref_model, ne_report):
        stay = TriggerPolicy(ne_report.solution, ne_report.solution)
        for k in range(2):
            assert deviation_payoff(ref_model, stay, k) == pytest.approx(
                ee_utility(ref_model, ne_report.solution.powers, k), abs=1e-9)


class TestMinDiscount:
    def test_formula_substitution(self):
        assert _min_discount_from_utilities([2.0], [1.5], [1.0]) == pytest.approx(0.5)

    def test_no_gain_means_zero_threshold(self):
        assert _min_discount_from_utilities([1.5], [1.5], [1.0]) == 0.0

    def test_irrational_cooperation_rejected(self):
        with pytest.raises(CooperationNotRationalError, match="player 1"):
            _min_discount_from_utilities([2.0], [1.0], [1.0])

    def test_binding_player_sets_threshold(self):
        loose = (2.0 - 1.9) / (2.0 - 1.0)
        tight = (3.0 - 1.5) / (3.0 - 1.0)
        got = _min_discount_from_utilities([2.0, 3.0], [1.9, 1.5], [1.0, 1.0])
        assert got == pytest.approx(max(loose, tight))

    def test_wider_cooperation_gap_never_raises_threshold(self):
        base = _min_discount_from_utilities([2.0], [1.5], [1.0])
        wider = _min_discount_from_utilities([2.0], [1.8], [1.0])
        assert wider <= base

    def test_network_threshold_in_unit_interval(self, ref_model, policy):
        d = min_discount(ref_model, policy)
        assert 0.0 < d < 1.0

    def test_matches_utilities_formula(self, ref_model, policy, so_point,
                                       ne_report):
        u_dev = [deviation_payoff(ref_model, policy, k) for k in range(2)]
        expected = _min_discount_from_utilities(u_dev, so_point.utilities,
                                                ne_report.utilities)
        assert min_discount(ref_model, policy) == expected


class TestSimulateTrigger:
    def test_conformity_yields_cooperation_exactly(self, ref_model, policy,
                                                   so_point):
        for d in (0.1, 0.5, 0.95):
            got = simulate_trigger(ref_model, policy, DiscountSpec(delta=d))
            assert got == so_point.utilities

    def test_immediate_deviation_closed_form(self, ref_model, policy, ne_report):
        d = 0.8
        got = simulate_trigger(ref_model, policy, DiscountSpec(delta=d),
                               deviant=0)
        u_dev = deviation_payoff(ref_model, policy, 0)
        assert got[0] == pytest.approx((1 - d) * u_dev + d * ne_report.utilities[0],
                                       rel=1e-12)

    def test_delayed_deviation_geometric_form(self, ref_model, policy,
                                              so_point, ne_report):
        d, at = 0.8, 3
        got = simulate_trigger(ref_model, policy, DiscountSpec(delta=d),
                               deviant=1, deviate_at=at)
        u_dev = deviation_payoff(ref_model, policy, 1)
        coop, punish = so_point.utilities[1], ne_report.utilities[1]
        expected = ((1 - d) * sum(d ** n * coop for n in range(at))
                    + (1 - d) * d ** at * u_dev + d ** (at + 1) * punish)
        assert got[1] == pytest.approx(expected, rel=1e-12)

    def test_deviation_past_any_list_is_cooperation(self, ref_model, policy, so_point):
        # delta^N underflows to 0, so the value is cooperation's, bit for bit
        for at in (10 ** 9, 10 ** 20, 10 ** 400):
            got = simulate_trigger(ref_model, policy, DiscountSpec(delta=0.999999),
                                   deviant=0, deviate_at=at)
            assert got == so_point.utilities
            _, rows = trigger_csv_rows(ref_model, policy, DiscountSpec(delta=0.5),
                                       deviant=0, deviate_at=at, stages=3)
            assert [tuple(r[1:3]) for r in rows] == [policy.cooperate_profile.powers] * 3

    def test_threshold_indifference(self, ref_model, policy, so_point):
        d = min_discount(ref_model, policy)
        got = simulate_trigger(ref_model, policy, DiscountSpec(delta=d), deviant=0)
        assert abs(got[0] - so_point.utilities[0]) <= 1e-9

    def test_deviant_payoff_decreasing_in_delta(self, ref_model, policy):
        payoffs = [simulate_trigger(ref_model, policy, DiscountSpec(delta=d),
                                    deviant=0)[0] for d in (0.2, 0.5, 0.8)]
        assert payoffs[0] > payoffs[1] > payoffs[2]

    def test_bad_arguments(self, ref_model, policy):
        with pytest.raises(IndexError, match="deviant"):
            simulate_trigger(ref_model, policy, DiscountSpec(delta=0.5),
                             deviant=2)
        with pytest.raises(ValueError, match="deviate_at"):
            simulate_trigger(ref_model, policy, DiscountSpec(delta=0.5),
                             deviant=0, deviate_at=-1)
        with pytest.raises(ValueError, match="deviate_at"):
            simulate_trigger(ref_model, policy, DiscountSpec(delta=0.5),
                             deviate_at=-3)
        with pytest.raises(ValueError, match="deviate_at"):
            trigger_csv_rows(ref_model, policy, DiscountSpec(delta=0.5),
                             deviate_at=-3)


class TestTriggerCsv:
    def test_layout_and_running_sums(self, ref_model, policy):
        spec = DiscountSpec(delta=0.9)
        header, rows = trigger_csv_rows(ref_model, policy, spec, deviant=0,
                                        deviate_at=2, stages=6)
        assert header == ["stage", "s_1", "s_2", "u_1", "u_2",
                          "disc_u_1", "disc_u_2"]
        assert len(rows) == 6
        assert [r[0] for r in rows] == list(range(6))
        coop = policy.cooperate_profile.powers
        punish = policy.punish_profile.powers
        assert tuple(rows[0][1:3]) == coop
        assert tuple(rows[1][1:3]) == coop
        assert rows[2][1] != coop[0]  # the deviation stage
        assert tuple(rows[3][1:3]) == punish
        running = sum(0.9 ** n * rows[n][4] for n in range(6))
        assert rows[5][6] == pytest.approx(running, rel=1e-12)


class TestOnePassPath:
    @settings(max_examples=60, deadline=None)
    @given(game=st.sampled_from(["reference", "symmetric"]),
           deviant=st.sampled_from([None, 0, 1]),
           deviate_at=st.one_of(st.integers(0, 30), st.integers(0, 1000)),
           stages=st.integers(0, 60), delta=st.floats(0.0, 0.99, exclude_max=True))
    def test_matches_stage_by_stage_bit_for_bit(self, games, game, deviant,
                                                 deviate_at, stages, delta):
        # the CSV rows bit for bit; the payoffs too, but for the closed form of
        # a cooperation phase before the deviation, within 1e-12 of the sum
        model, policy = games[game]
        spec = DiscountSpec(delta=delta)
        payoffs, rows = stage_by_stage(model, policy, spec, deviant, deviate_at,
                                       stages)
        got = simulate_trigger(model, policy, spec, deviant, deviate_at)
        if deviant is None or deviate_at == 0:
            assert got == payoffs
        else:
            assert got == pytest.approx(payoffs, rel=1e-12, abs=0.0)
        _, got = trigger_csv_rows(model, policy, spec, deviant, deviate_at, stages)
        assert got == rows
