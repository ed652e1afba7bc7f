"""Finite on/off games: construction, dominance, equilibria, CE checks."""
import pytest
from hypothesis import assume, given, settings, strategies as st

import finite_reference as ref
from icpower import (Elimination, FiniteGame, FiniteGameParams,
                     JointDistribution, build_ic_game, build_nfe_game,
                     is_correlated_equilibrium, iterated_dominance, pure_nash)
from icpower.finite import _strictly_dominated

PARAMS = FiniteGameParams(throughput_reward=1.0, power_cost=0.01, sinr_threshold=4.0)


@pytest.fixture(scope="module")
def nfe_game():
    # weak transmitter h1 = 0.25, strong h2 = 1.0; power level = 4
    return build_nfe_game(PARAMS, h1=0.25, h2=1.0, noise_power=1.0, processing_gain=4.0)


@pytest.fixture(scope="module")
def ic_game():
    # single shared gain; power level = 1
    return build_ic_game(PARAMS, h=1.0, noise_power=1.0, processing_gain=4.0)


class TestParams:
    def test_cost_must_be_below_reward(self):
        with pytest.raises(ValueError, match="throughput_reward > power_cost"):
            FiniteGameParams(throughput_reward=0.01, power_cost=0.5)

    def test_threshold_positive(self):
        with pytest.raises(ValueError, match="sinr_threshold"):
            FiniteGameParams(sinr_threshold=0.0)


class TestGameType:
    def test_tensor_shape_enforced(self):
        with pytest.raises(ValueError, match="shape"):
            FiniteGame(strategies=((0.0, 1.0), (0.0, 1.0)),
                       payoffs=[[(0, 0), (0, 0)]])
        with pytest.raises(ValueError, match="at least one strategy"):
            FiniteGame(strategies=((0.0, 1.0), ()), payoffs=[[], []])

    def test_profile_values(self, nfe_game):
        assert nfe_game.profile_values((1, 0)) == (4.0, 0.0)


class TestConstruction:
    def test_nfe_payoff_matrix(self, nfe_game):
        assert nfe_game.strategies == ((0.0, 4.0), (0.0, 4.0))
        expected = {(0, 0): (0.0, 0.0), (0, 1): (0.0, 0.99),
                    (1, 0): (0.99, 0.0), (1, 1): (-0.01, 0.99)}
        for (i, j), want in expected.items():
            got = nfe_game.payoffs[i][j]
            assert got == pytest.approx(want, abs=1e-12), (i, j)

    def test_ic_payoff_matrix(self, ic_game):
        assert ic_game.strategies == ((0.0, 1.0), (0.0, 1.0))
        expected = {(0, 0): (0.0, 0.0), (0, 1): (0.0, 0.99),
                    (1, 0): (0.99, 0.0), (1, 1): (-0.01, -0.01)}
        for (i, j), want in expected.items():
            assert ic_game.payoffs[i][j] == pytest.approx(want, abs=1e-12), (i, j)

    def test_nfe_assumption_violation_named(self):
        with pytest.raises(ValueError, match="near-far assumption"):
            build_nfe_game(PARAMS, h1=0.6, h2=1.0, noise_power=1.0, processing_gain=4.0)

    def test_threshold_robust_to_rounding(self):
        # power level is irrational in binary; the lone transmitter must
        # still clear the threshold it sits on by construction
        game = build_nfe_game(PARAMS, h1=0.3, h2=1.0, noise_power=0.7,
                              processing_gain=4.0)
        assert game.payoffs[1][0][0] == pytest.approx(0.99, abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="gain"):
            build_ic_game(PARAMS, h=0.0, noise_power=1.0, processing_gain=4.0)
        with pytest.raises(ValueError, match="noise_power"):
            build_ic_game(PARAMS, h=1.0, noise_power=0.0, processing_gain=4.0)
        with pytest.raises(ValueError, match="processing_gain"):
            build_nfe_game(PARAMS, h1=0.25, h2=1.0, noise_power=1.0,
                           processing_gain=0.5)
        for h1, h2 in ((0.0, 1.0), (0.25, -1.0)):
            with pytest.raises(ValueError, match="gains must be > 0"):
                build_nfe_game(PARAMS, h1=h1, h2=h2, noise_power=1.0, processing_gain=4.0)


class TestDominance:
    def test_nfe_initial_domination(self, nfe_game):
        # strong player's silence is dominated; weak player undecided
        assert _strictly_dominated(nfe_game, 1, 0) == (True, 1)
        assert _strictly_dominated(nfe_game, 0, 0) == (False, None)
        assert _strictly_dominated(nfe_game, 0, 1) == (False, None)

    def test_nfe_iterated_dominance(self, nfe_game):
        reduced, log = iterated_dominance(nfe_game)
        assert reduced.strategies == ((0.0,), (4.0,))
        assert log == [
            Elimination(round=1, player=1, strategy=0.0, dominator=4.0),
            Elimination(round=2, player=0, strategy=4.0, dominator=0.0),
        ]

    def test_ic_has_no_dominated_strategies(self, ic_game):
        reduced, log = iterated_dominance(ic_game)
        assert log == []
        assert reduced == ic_game

    def test_three_round_elimination(self):
        # col z falls first, then row b, then col y; (a, x) survives
        game = FiniteGame(
            strategies=((10.0, 20.0), (1.0, 2.0, 3.0)),
            payoffs=[[(3, 3), (2, 2), (1, 1)],
                     [(2, 1), (0, 1.5), (5, 0)]])
        reduced, log = iterated_dominance(game)
        assert reduced.strategies == ((10.0,), (1.0,))
        # both x and y dominate z; the log records the first dominator found
        assert [(e.round, e.player, e.strategy, e.dominator) for e in log] == [
            (1, 1, 3.0, 1.0), (2, 0, 20.0, 10.0), (3, 1, 2.0, 1.0)]
        assert pure_nash(game) == {(0, 0)}


class TestPureNash:
    def test_nfe_unique_equilibrium(self, nfe_game):
        assert pure_nash(nfe_game) == {(0, 1)}
        assert nfe_game.profile_values((0, 1)) == (0.0, 4.0)

    def test_ic_two_equilibria(self, ic_game):
        assert pure_nash(ic_game) == {(0, 1), (1, 0)}

    def test_best_response_ties_kept(self):
        flat = FiniteGame(strategies=((0.0, 1.0), (0.0, 1.0)),
                          payoffs=[[(1, 0), (1, 0)], [(1, 0), (1, 0)]])
        assert pure_nash(flat) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    @settings(max_examples=200, deadline=None)
    @given(cost=st.floats(1e-6, 1e3), gain=st.floats(1e-6, 1e3),
           threshold=st.floats(1e-9, 1e3), w=st.floats(1.0, 1e6),
           noise=st.floats(1e-6, 1e6), h=st.floats(1e-6, 1e6), h2=st.floats(1e-6, 1e6),
           ratio=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_on_off_games_always_have_a_pure_ne(self, cost, gain, threshold, w, noise,
                                                 h, h2, ratio):
        # cli.cmd_finite has no branch for a game without a pure NE
        params = FiniteGameParams(throughput_reward=cost + gain, power_cost=cost,
                                  sinr_threshold=threshold)
        assert pure_nash(build_ic_game(params, h, noise, w))
        h1 = h2 * ratio / (1.0 + threshold / w)  # inside the near-far bound
        assume(h1 >= 1e-6 and h1 / h2 < 1.0 / (1.0 + threshold / w))
        assert pure_nash(build_nfe_game(params, h1, h2, noise, w))


class TestCorrelated:
    def test_distribution_validation(self):
        with pytest.raises(ValueError, match=">= 0"):
            JointDistribution(((0.5, -0.5), (0.5, 0.5)))
        with pytest.raises(ValueError, match="sum to 1"):
            JointDistribution(((0.5, 0.0), (0.0, 0.0)))

    def test_uniform_and_point_mass_helpers(self):
        point = JointDistribution.uniform_over((2, 2), [(0, 1)])
        assert point.probabilities[0][1] == 1.0
        mix = JointDistribution.uniform_over((2, 2), [(0, 1), (1, 0)])
        assert mix.probabilities[0][1] == 0.5 and mix.probabilities[1][0] == 0.5
        with pytest.raises(ValueError, match="at least one"):
            JointDistribution.uniform_over((2, 2), [])

    def test_uniform_over_names_a_repeated_profile(self):
        # it once weighted the cell 1/2 and then failed "must sum to 1 (got 0.5)"
        with pytest.raises(ValueError, match=r"profile \(0, 1\) is listed twice"):
            JointDistribution.uniform_over((2, 2), [(0, 1), (0, 1)])

    def test_uniform_over_names_a_negative_index(self):
        # it once put (-1, 0) silently on the last row
        with pytest.raises(ValueError,
                           match=r"profile \(-1, 0\) is out of range for shape \(2, 2\)"):
            JointDistribution.uniform_over((2, 2), [(-1, 0), (1, 1)])

    def test_uniform_over_names_an_index_past_the_shape(self):
        # it once raised a bare IndexError
        with pytest.raises(ValueError,
                           match=r"profile \(2, 0\) is out of range for shape \(2, 2\)"):
            JointDistribution.uniform_over((2, 2), [(2, 0)])

    def test_uniform_ne_mixture_is_ce(self, ic_game):
        mix = JointDistribution.uniform_over((2, 2), sorted(pure_nash(ic_game)))
        holds, worst = is_correlated_equilibrium(ic_game, mix)
        assert holds
        # binding constraint: obey "stay silent" while the other transmits
        assert worst == pytest.approx(0.5 * 0.01, abs=1e-12)

    def test_point_mass_on_non_equilibrium_fails(self, ic_game):
        both = JointDistribution.uniform_over((2, 2), [(1, 1)])
        holds, worst = is_correlated_equilibrium(ic_game, both)
        assert not holds
        assert worst == pytest.approx(-0.01, abs=1e-12)

    def test_every_pure_ne_point_mass_is_ce(self, nfe_game, ic_game):
        for game in (nfe_game, ic_game):
            for joint in pure_nash(game):
                point = JointDistribution.uniform_over((2, 2), [joint])
                holds, worst = is_correlated_equilibrium(game, point)
                assert holds and worst >= 0.0

    def test_shape_mismatch_rejected(self, ic_game):
        with pytest.raises(ValueError, match="shape"):
            is_correlated_equilibrium(ic_game, JointDistribution.uniform_over((2, 3), [(0, 0)]))


class TestArrays:
    """Payoff matrices and distributions are nested tuples of floats."""

    def test_payoffs_and_probabilities_are_read_only(self, ic_game):
        with pytest.raises(TypeError):
            ic_game.payoffs[0][0] = (1.0, 1.0)
        dist = JointDistribution.uniform_over((2, 2), [(0, 1)])
        with pytest.raises(TypeError):
            dist.probabilities[0][0] = 1.0

    def test_input_array_is_copied(self):
        raw = [[(0, 0)]]
        game = FiniteGame(strategies=((0.0,), (0.0,)), payoffs=raw)
        raw[0][0] = (5, 5)
        assert game.payoffs == (((0.0, 0.0),),)
        weights = [[1, 0]]
        dist = JointDistribution(weights)
        weights[0][0] = 0
        assert dist.probabilities == ((1.0, 0.0),)

    def test_value_equality_and_hash(self, ic_game, nfe_game):
        clone = FiniteGame(ic_game.strategies, [list(map(list, row)) for row in ic_game.payoffs])
        assert clone == ic_game and hash(clone) == hash(ic_game)
        assert ic_game != nfe_game and ic_game != "ic"
        assert len({ic_game, clone, nfe_game}) == 2
        mix = JointDistribution.uniform_over((2, 2), [(0, 1), (1, 0)])
        same = JointDistribution([[0, 0.5], [0.5, 0]])
        assert mix == same and hash(mix) == hash(same)

    def test_three_players_rejected(self):
        with pytest.raises(ValueError, match="2 players"):
            FiniteGame(strategies=((0.0,), (0.0,), (0.0,)), payoffs=[[[(0, 0, 0)]]])


@st.composite
def tied_games(draw):
    """2 players, 1-3 strategies each, payoffs in 0..3 so ties are common."""
    n1, n2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def matrix(cell):
        return st.lists(st.lists(cell, min_size=n2, max_size=n2), min_size=n1, max_size=n1)

    payoffs = draw(matrix(st.tuples(st.integers(0, 3), st.integers(0, 3))))
    weights = draw(matrix(st.integers(0, 4)).filter(lambda q: any(map(any, q))))
    total = sum(map(sum, weights))
    game = FiniteGame(strategies=(tuple(map(float, range(n1))), tuple(map(float, range(n2)))),
                      payoffs=payoffs)
    return game, JointDistribution([[w / total for w in row] for row in weights])


class TestAgainstBruteForce:
    @settings(max_examples=300, deadline=None)
    @given(tied_games())
    def test_solvers_match_loop_reference(self, case):
        game, dist = case
        sizes = [len(s) for s in game.strategies]
        for k, n in enumerate(sizes):
            for i in range(n):
                assert _strictly_dominated(game, k, i) == ref.strictly_dominated(game, k, i)

        reduced, log = iterated_dominance(game)
        active, ref_log = ref.iterated_dominance(game)
        assert [(e.round, e.player, e.strategy, e.dominator) for e in log] == [
            (r, k, game.strategies[k][i], game.strategies[k][a]) for r, k, i, a in ref_log]
        assert reduced == FiniteGame(
            tuple(tuple(game.strategies[k][i] for i in keep) for k, keep in enumerate(active)),
            [[game.payoffs[i][j] for j in active[1]] for i in active[0]])

        assert pure_nash(game) == ref.pure_nash(game)
        holds, worst = is_correlated_equilibrium(game, dist)
        ref_holds, ref_worst = ref.ce_check(game, dist.probabilities)
        assert holds == ref_holds
        assert worst == pytest.approx(ref_worst, rel=0.0, abs=1e-12)
