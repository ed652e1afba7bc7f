"""End-to-end acceptance criteria with stated tolerances and runtime caps.

Each test exercises one criterion on the reference network and records a
PASS/FAIL line for the terminal summary.
"""
import math
import time

import numpy as np
import pytest

from icpower import (FiniteGameParams, JointDistribution, PricingConfig,
                     Weights, best_response_priced, br_dynamics,
                     build_ic_game, build_nfe_game, deviation_payoff,
                     discounted_utility, distance_to_frontier, DiscountSpec,
                     ee_utility, gamma_star, in_improvement_region,
                     is_correlated_equilibrium, iterated_dominance,
                     min_discount, nash_bargaining, nash_equilibrium,
                     packet_throughput, priced_responder,
                     priced_utility, pure_nash, simulate_trigger,
                     social_optimum, TriggerPolicy, utility_grid,
                     utility_point)

from conftest import make_model
from test_efficiency import all_points, brute_frontier, frontier_points

PARAMS = FiniteGameParams(throughput_reward=1.0, power_cost=0.01,
                          sinr_threshold=4.0)


def within(vec, target, tol):
    return all(abs(a - b) <= tol for a, b in zip(vec, target))


def test_ac1_optimal_sinr(record_ac):
    gamma_star.cache_clear()
    start = time.perf_counter()
    g = gamma_star(20)
    elapsed = time.perf_counter() - start
    residual = abs(20 * g * math.exp(-g) - (1 - math.exp(-g)))
    ok = 4.41 <= g <= 4.59 and residual <= 1e-10 and elapsed < 1e-3
    record_ac(1, "optimal SINR", ok,
              f"gamma*={g:.4f}, residual={residual:.1e}, {elapsed * 1e3:.2f} ms")
    assert 4.41 <= g <= 4.59
    assert residual <= 1e-10
    assert elapsed < 1e-3


def test_ac2_continuous_equilibrium(record_ac, ref_model):
    start = time.perf_counter()
    report = br_dynamics(ref_model)
    elapsed = time.perf_counter() - start
    s = report.solution.normalized(1.0)
    gs = gamma_star(20)
    ratio = s[0] / s[1]
    tfrac = packet_throughput(report.sinrs[0], ref_model) / ref_model.rate_scale
    ok = (report.converged and within(s, (2.99, 1.97), 0.02)
          and within(report.normalized_utilities, (0.269, 0.407), 0.003)
          and all(abs(g - gs) <= 0.01 * gs for g in report.sinrs)
          and abs(ratio - 1.52) <= 0.02 and abs(tfrac - 0.80) <= 0.01
          and elapsed < 0.1)
    record_ac(2, "continuous NE", ok,
              f"s/noise=[{s[0]:.3f}, {s[1]:.3f}], "
              f"u_norm=[{report.normalized_utilities[0]:.4f}, "
              f"{report.normalized_utilities[1]:.4f}], ratio={ratio:.3f}, "
              f"throughput={tfrac:.3f}, {elapsed * 1e3:.1f} ms")
    assert report.converged
    assert within(s, (2.99, 1.97), 0.02)
    assert within(report.normalized_utilities, (0.269, 0.407), 0.003)
    for g in report.sinrs:
        assert abs(g - gs) <= 0.01 * gs
    assert abs(ratio - 1.52) <= 0.02
    assert abs(tfrac - 0.80) <= 0.01
    assert elapsed < 0.1


def test_ac3_social_optimum(record_ac, ref_model):
    start = time.perf_counter()
    ne = nash_equilibrium(ref_model)
    so = social_optimum(ref_model, Weights((0.5, 0.5)))
    elapsed = time.perf_counter() - start
    s = so.profile.normalized(1.0)
    improves = in_improvement_region(so, ne)
    ok = (within(s, (2.20, 1.55), 0.05)
          and within(so.normalized, (0.278, 0.446), 0.005)
          and improves and elapsed < 5.0)
    record_ac(3, "social optimum", ok,
              f"s/noise=[{s[0]:.3f}, {s[1]:.3f}], "
              f"u_norm=[{so.normalized[0]:.4f}, {so.normalized[1]:.4f}], "
              f"improves NE: {improves}, {elapsed:.2f} s")
    assert within(s, (2.20, 1.55), 0.05)
    assert within(so.normalized, (0.278, 0.446), 0.005)
    assert improves
    assert elapsed < 5.0


def test_ac4_pricing(record_ac, ref_model):
    start = time.perf_counter()
    responder = priced_responder(PricingConfig(0.12))
    report = br_dynamics(ref_model, responder=responder, tol=1e-7)
    points = utility_grid(ref_model, 400)
    frontier = frontier_points(points)
    priced_pt = utility_point(ref_model, report.solution.powers)
    dist = distance_to_frontier(priced_pt, frontier)
    elapsed = time.perf_counter() - start
    s = report.solution.normalized(1.0)
    ok = (report.converged and within(s, (2.17, 1.57), 0.05)
          and dist <= 0.01 and elapsed < 2.0)
    record_ac(4, "pricing", ok,
              f"s/noise=[{s[0]:.3f}, {s[1]:.3f}], frontier distance "
              f"{dist:.2e}, {elapsed:.2f} s")
    assert report.converged
    assert within(s, (2.17, 1.57), 0.05)
    assert dist <= 0.01
    assert elapsed < 2.0


def test_ac5_nash_bargaining(record_ac, ref_model):
    start = time.perf_counter()
    disagreement = nash_equilibrium(ref_model)
    so = social_optimum(ref_model, Weights((0.5, 0.5)))
    nbs = nash_bargaining(ref_model, disagreement)
    elapsed = time.perf_counter() - start
    s = nbs.profile.normalized(1.0)
    sandwich = (disagreement.normalized[0] < so.normalized[0]
                < nbs.normalized[0])
    ok = (within(s, (2.26, 1.52), 0.05)
          and within(nbs.normalized, (0.288, 0.434), 0.005)
          and sandwich and elapsed < 5.0)
    record_ac(5, "Nash bargaining", ok,
              f"s/noise=[{s[0]:.3f}, {s[1]:.3f}], "
              f"u_norm=[{nbs.normalized[0]:.4f}, {nbs.normalized[1]:.4f}], "
              f"sandwich {disagreement.normalized[0]:.4f} < "
              f"{so.normalized[0]:.4f} < {nbs.normalized[0]:.4f}, "
              f"{elapsed:.2f} s")
    assert within(s, (2.26, 1.52), 0.05)
    assert within(nbs.normalized, (0.288, 0.434), 0.005)
    assert sandwich
    assert elapsed < 5.0


def test_ac6_finite_near_far(record_ac):
    start = time.perf_counter()
    game = build_nfe_game(PARAMS, h1=0.25, h2=1.0, noise_power=1.0,
                          processing_gain=4.0)
    reduced, log = iterated_dominance(game)
    nash = pure_nash(game)
    elapsed = time.perf_counter() - start
    p = game.strategies[0][-1]
    survivor = reduced.strategies == ((0.0,), (p,))
    unique_ne = nash == {(0, 1)}
    ok = survivor and unique_ne and len(log) == 2 and elapsed < 0.1
    record_ac(6, "finite near-far game", ok,
              f"survivor [0, {p:g}]: {survivor}, unique NE: {unique_ne}, "
              f"{elapsed * 1e3:.1f} ms")
    assert survivor
    assert unique_ne
    assert elapsed < 0.1


def test_ac7_finite_symmetric(record_ac):
    start = time.perf_counter()
    game = build_ic_game(PARAMS, h=1.0, noise_power=1.0, processing_gain=4.0)
    _, log = iterated_dominance(game)
    nash = pure_nash(game)
    mix = JointDistribution.uniform_over((2, 2), sorted(nash))
    holds, worst = is_correlated_equilibrium(game, mix)
    elapsed = time.perf_counter() - start
    two_ne = nash == {(0, 1), (1, 0)}
    ok = (not log) and two_ne and holds and worst >= 0.0 and elapsed < 0.1
    record_ac(7, "finite symmetric game", ok,
              f"no dominance: {not log}, NEs {{[p,0],[0,p]}}: {two_ne}, "
              f"CE slack {worst:.3e}, {elapsed * 1e3:.1f} ms")
    assert not log
    assert two_ne
    assert holds and worst >= 0.0
    assert elapsed < 0.1


def test_ac8_repeated_game(record_ac, ref_model, so_point, ne_report):
    policy = TriggerPolicy(cooperate_profile=so_point.profile,
                           punish_profile=ne_report.solution)
    start = time.perf_counter()
    dmin = min_discount(ref_model, policy)

    def profitable(delta):
        spec = DiscountSpec(delta=delta)
        return any(
            simulate_trigger(ref_model, policy, spec, deviant=k)[k]
            > so_point.utilities[k] for k in range(2))

    lo, hi = 0.0, 0.9999
    assert profitable(lo) and not profitable(hi)
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if profitable(mid):
            lo = mid
        else:
            hi = mid
    bisected = 0.5 * (lo + hi)
    above = not profitable(dmin + 0.05)
    below = profitable(dmin - 0.05)
    elapsed = time.perf_counter() - start
    ok = (0.0 < dmin < 1.0 and abs(bisected - dmin) <= 1e-6
          and above and below and elapsed < 1.0)
    record_ac(8, "repeated game threshold", ok,
              f"min discount {dmin:.6f}, bisected {bisected:.6f}, "
              f"deviation blocked above / profitable below: {above}/{below}, "
              f"{elapsed * 1e3:.0f} ms")
    assert 0.0 < dmin < 1.0
    assert abs(bisected - dmin) <= 1e-6
    assert above and below
    assert elapsed < 1.0


def test_ac9_oracle_suites(record_ac, ref_model):
    # frontier vs quadratic non-domination oracle
    plane = utility_grid(ref_model, 50)
    frontier_ok = frontier_points(plane) == brute_frontier(all_points(plane))

    # priced best response vs a 100001-point grid argmax
    br_ok = True
    worst_gap = 0.0
    v = np.linspace(0.0, ref_model.power_cap, 100_001)
    step = v[1] - v[0]
    for alpha, opp in ((0.12, 1.57), (0.0, 1.97), (0.3, 0.5)):
        cfg = PricingConfig(alpha)
        br = best_response_priced(ref_model, (0.0, opp), 0, cfg)
        vals = [priced_utility(ref_model, (x, opp), 0, cfg)
                for x in (0.0, br)]  # sanity: br at least beats silence
        assert vals[1] >= vals[0] - 1e-12
        mu = 4.0 * 0.75 / (1.0 + 0.5 * opp)
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.where(v > 0, (-np.expm1(-mu * v)) ** 20 / v - alpha * v, 0.0)
        gap = abs(br - v[int(np.argmax(u))])
        worst_gap = max(worst_gap, gap)
        br_ok = br_ok and gap <= step + 1e-12

    # discounted closed forms vs 10^4-term partial sums
    disc_ok = True
    for delta, stream in ((0.3, [2.0, 1.0]), (0.9, [1.0, 0.5, 0.25]),
                          (0.6, [0.7])):
        got = discounted_utility(stream, DiscountSpec(delta=delta))
        expanded = [stream[n] if n < len(stream) else stream[-1]
                    for n in range(10_000)]
        partial = (1 - delta) * sum(delta ** n * x
                                    for n, x in enumerate(expanded))
        disc_ok = disc_ok and abs(got - partial) <= 1e-9

    ok = frontier_ok and br_ok and disc_ok
    record_ac(9, "oracle suites", ok,
              f"frontier==brute force: {frontier_ok}, priced BR within one "
              f"grid step (worst {worst_gap:.1e}): {br_ok}, discounting vs "
              f"partial sums: {disc_ok}")
    assert frontier_ok
    assert br_ok
    assert disc_ok


def test_ac10_invariance_suite(record_ac, ref_model, symmetric_model,
                               ne_report):
    # homogeneity: scaling noise and cap rescales powers, fixes the rest
    c = 2.5
    scaled = make_model(noise_power=c, power_cap=5.0 * c)
    scaled_ne = br_dynamics(scaled)
    homog = (within(scaled_ne.solution.powers,
                    tuple(v * c for v in ne_report.solution.powers), 1e-8)
             and within(scaled_ne.normalized_utilities,
                        ne_report.normalized_utilities, 1e-9)
             and within(scaled_ne.sinrs, ne_report.sinrs, 1e-8))

    # symmetry: symmetric network, symmetric NE and NBS
    sym_base = nash_equilibrium(symmetric_model)
    sym_nbs = nash_bargaining(symmetric_model, sym_base)
    symmetric = (abs(sym_base.profile.powers[0] - sym_base.profile.powers[1])
                 <= 1e-9
                 and abs(sym_nbs.utilities[0] - sym_nbs.utilities[1]) <= 1e-4)

    # initializer independence of the dynamics
    from_zero = br_dynamics(ref_model, init=(0.0, 0.0))
    init_free = all(abs(a - b) <= 10 * ne_report.tolerance for a, b in
                    zip(from_zero.solution.powers, ne_report.solution.powers))

    ok = homog and symmetric and init_free
    record_ac(10, "invariance suite", ok,
              f"homogeneity: {homog}, symmetry: {symmetric}, "
              f"init independence: {init_free}")
    assert homog
    assert symmetric
    assert init_free
