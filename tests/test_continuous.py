"""Continuous game: throughput model, optimal SINR, best responses, dynamics."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from icpower import (DegenerateUtilityError, PowerProfile, PricingConfig,
                     SolveReport, best_response_ee, best_response_priced,
                     br_dynamics, ee_utility, gamma_star, ne_continuous,
                     packet_throughput, priced_responder, priced_utility)
from icpower.continuous import _slope, _slope_peak, trace_csv_rows
from icpower.network import effective_gain, sinr

from conftest import make_model

# root of 2*g*exp(-g) = 1 - exp(-g), frozen from an independent pre-build
# root-finder run
GAMMA_STAR_2 = 1.2564312086261695


def linear_solve_ne(model):
    """Independent interior-NE oracle: both SINRs pinned at gamma_star."""
    g = model.gain_matrix()
    gs = gamma_star(model.packet_bits)
    a = np.array([[model.processing_gain * g[0, 0], -gs * g[0, 1]],
                  [-gs * g[1, 0], model.processing_gain * g[1, 1]]])
    b = np.full(2, gs * model.noise_power)
    return np.linalg.solve(a, b)


def step_rule_dynamics(model, responder, tol, max_iter):
    """The earlier stop rule: stop on the first step <= tol, then spend one
    more sweep on the residual.  Returns (profile, trace, residual)."""
    current = (model.power_cap,) * model.num_players
    trace = [current]
    for _ in range(max_iter):
        nxt = tuple(responder(model, current, k) for k in range(model.num_players))
        trace.append(nxt)
        step = max(abs(a - b) for a, b in zip(nxt, current))
        current = nxt
        if step <= tol:
            break
    residual = max(abs(current[k] - responder(model, current, k))
                   for k in range(model.num_players))
    return current, tuple(trace), residual


drawn_models = st.builds(
    lambda d1, d2, c1, c2, bits, cap, noise, w: make_model(
        gains=((d1, c1), (c2, d2)), packet_bits=bits, power_cap=cap,
        noise_power=noise, processing_gain=w),
    st.floats(0.3, 2.0), st.floats(0.3, 2.0), st.floats(0.0, 1.0),
    st.floats(0.0, 1.0), st.integers(2, 60), st.floats(0.5, 10.0),
    st.floats(0.1, 3.0), st.floats(1.0, 16.0))


class TestPacketThroughput:
    def test_zero_sinr_zero_throughput(self, ref_model):
        assert packet_throughput(0.0, ref_model) == 0.0

    def test_negative_sinr_rejected(self, ref_model):
        with pytest.raises(ValueError, match=">= 0"):
            packet_throughput(-0.1, ref_model)

    def test_single_bit_closed_form(self):
        model = make_model(packet_bits=1)
        assert packet_throughput(1.0, model) == pytest.approx(1 - math.exp(-1),
                                                              rel=1e-15)

    def test_reference_operating_point(self, ref_model):
        # 20-bit packets at SINR 4.5 deliver about 80% of the peak rate
        assert packet_throughput(4.5, ref_model) == pytest.approx(0.80, abs=0.01)

    def test_strictly_increasing_saturating(self, ref_model):
        grid = np.linspace(0.1, 25.0, 200)
        vals = [packet_throughput(g, ref_model) for g in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert packet_throughput(30.0, ref_model) < ref_model.rate_scale
        assert packet_throughput(200.0, ref_model) == pytest.approx(1.0, abs=1e-15)

    def test_scales_with_rate(self):
        assert packet_throughput(3.0, make_model(rate_scale=7.0)) == pytest.approx(
            7.0 * packet_throughput(3.0, make_model()), rel=1e-15)


class TestEeUtility:
    def test_zero_power_zero_utility(self, ref_model):
        assert ee_utility(ref_model, (0.0, 1.0), 0) == 0.0

    def test_matches_throughput_over_power(self, ref_model):
        s = (2.5, 1.5)
        expected = packet_throughput(sinr(ref_model, s, 1), ref_model) / s[1]
        assert ee_utility(ref_model, s, 1) == expected

    def test_reference_equilibrium_utilities(self, ref_model):
        s = (2.99, 1.97)
        assert ee_utility(ref_model, s, 0) == pytest.approx(0.269, abs=0.003)
        assert ee_utility(ref_model, s, 1) == pytest.approx(0.407, abs=0.003)

    def test_homogeneity(self, ref_model):
        c = 3.7
        scaled = make_model(noise_power=c, power_cap=5.0 * c)
        s = (2.2, 1.4)
        for k in range(2):
            assert ee_utility(scaled, (s[0] * c, s[1] * c), k) == pytest.approx(
                ee_utility(ref_model, s, k) / c, rel=1e-12)


class TestPricedUtility:
    def test_reduces_to_ee_at_zero_alpha(self, ref_model):
        s = (2.0, 1.0)
        zero = PricingConfig(0.0)
        for k in range(2):
            assert priced_utility(ref_model, s, k, zero) == ee_utility(
                ref_model, s, k)

    def test_surcharge_subtracted(self, ref_model):
        s = (2.0, 1.0)
        cfg = PricingConfig(0.12)
        assert priced_utility(ref_model, s, 0, cfg) == pytest.approx(
            ee_utility(ref_model, s, 0) - 0.12 * 2.0, rel=1e-15)

    def test_zero_power_zero_value(self, ref_model):
        assert priced_utility(ref_model, (0.0, 1.0), 0, PricingConfig(5.0)) == 0.0

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            PricingConfig(-0.1)


class TestGammaStar:
    def test_residual_at_root(self):
        for bits in (2, 5, 20, 100):
            g = gamma_star(bits)
            assert abs(bits * g * math.exp(-g) - (1 - math.exp(-g))) <= 1e-12

    def test_two_bit_root_frozen_value(self):
        assert gamma_star(2) == pytest.approx(GAMMA_STAR_2, abs=1e-9)

    def test_increasing_in_packet_bits(self):
        assert gamma_star(2) < gamma_star(20) < gamma_star(100)

    def test_single_bit_degenerate(self):
        with pytest.raises(DegenerateUtilityError, match="monotone"):
            gamma_star(1)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            gamma_star(0)
        with pytest.raises(ValueError):
            gamma_star(2.5)

    def test_unique_efficiency_peak(self):
        # throughput(g)/g rises then falls exactly once, peaking at the root
        bits = 20
        grid = np.linspace(1e-3, 50.0, 5001)
        vals = (-np.expm1(-grid)) ** bits / grid
        signs = np.sign(np.diff(vals))
        flips = np.nonzero(signs[:-1] != signs[1:])[0]
        assert len(flips) == 1
        assert abs(grid[flips[0]] - gamma_star(bits)) < 0.02


def golden_section_max(f, lo, hi, tol=1e-12):
    """Midpoint of the bracket a golden-section search narrows to width tol."""
    r = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - r * (b - a), a + r * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - r * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + r * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


class TestSlopePeak:
    @pytest.mark.parametrize("bits, peak", [(3, 0.3234766478020756),
                                            (1000, 0.047197667366093946)])
    def test_frozen_golden_section_values(self, bits, peak):
        assert _slope_peak(bits)[1] == pytest.approx(peak, rel=1e-12)

    def test_matches_golden_section_search(self):
        for bits in range(3, 1001):
            h = lambda g: _slope(g, bits)
            want = h(golden_section_max(h, 0.0, gamma_star(bits)))
            assert _slope_peak(bits)[1] == pytest.approx(want, rel=1e-12), bits

    def test_two_bits_keeps_the_limit_at_zero(self):
        peak, top = _slope_peak(2)
        assert 0.0 < peak < gamma_star(2)
        assert abs(top - 1.0) <= 1e-12


class TestBestResponseEe:
    def test_interior_response_hits_gamma_star(self, ref_model):
        opp = (0.0, 1.97)
        br = best_response_ee(ref_model, opp, 0)
        assert br < ref_model.power_cap
        assert sinr(ref_model, (br, opp[1]), 0) == pytest.approx(
            gamma_star(20), rel=1e-12)

    def test_reference_component(self, ref_model):
        assert best_response_ee(ref_model, (0.0, 1.97), 0) == pytest.approx(
            2.99, abs=0.01)

    def test_cap_binds_on_weak_channel(self):
        weak = make_model(gains=((0.01, 0.5), (0.25, 1.0)))
        assert best_response_ee(weak, (0.0, 1.0), 0) == weak.power_cap

    def test_monotone_in_interference(self):
        uncapped = make_model(power_cap=1e6)
        brs = [best_response_ee(uncapped, (0.0, opp), 0) for opp in (0.0, 1.0, 3.0)]
        assert brs[0] < brs[1] < brs[2]


class TestBestResponsePriced:
    def test_zero_alpha_matches_closed_form(self, ref_model):
        opp = (0.0, 1.97)
        br = best_response_priced(ref_model, opp, 0, PricingConfig(0.0))
        assert br == best_response_ee(ref_model, opp, 0)

    def test_reference_component(self, ref_model):
        br = best_response_priced(ref_model, (0.0, 1.57), 0, PricingConfig(0.12))
        assert br == pytest.approx(2.17, abs=0.01)

    def test_huge_alpha_shuts_transmitter_off(self, ref_model):
        br = best_response_priced(ref_model, (0.0, 1.0), 0, PricingConfig(1e4))
        assert br <= 1e-3

    @pytest.mark.parametrize("alpha,opp", [(0.0, 1.97), (0.12, 1.57), (0.5, 0.3)])
    def test_beats_thousand_point_grid(self, ref_model, alpha, opp):
        cfg = PricingConfig(alpha)
        br = best_response_priced(ref_model, (0.0, opp), 0, cfg)
        grid = np.linspace(0.0, ref_model.power_cap, 1000)
        vals = [priced_utility(ref_model, (v, opp), 0, cfg) for v in grid]
        step = grid[1] - grid[0]
        assert abs(br - grid[int(np.argmax(vals))]) <= step + 1e-12

    def test_stays_in_range(self, ref_model):
        br = best_response_priced(ref_model, (0.0, 4.0), 0, PricingConfig(0.01))
        assert 0.0 <= br <= ref_model.power_cap

    def test_finds_a_narrow_positive_region(self):
        # the priced utility is positive only on a narrow band around 1.634,
        # between the points of a coarse scan; silence forgoes 6.4e-4
        model = make_model(gains=((1.0339, 0.5549), (0.3794, 1.3431)),
                           power_cap=5.9179, packet_bits=38)
        cfg, opp = PricingConfig(0.239319), 0.9343128151678124
        br = best_response_priced(model, (0.0, opp), 0, cfg)
        grid = np.linspace(0.0, model.power_cap, 100_001)
        vals = [priced_utility(model, (v, opp), 0, cfg) for v in grid]
        assert br > 0.0
        assert br == pytest.approx(grid[int(np.argmax(vals))], abs=1e-4)
        assert priced_utility(model, (br, opp), 0, cfg) >= max(vals)

    @settings(max_examples=150, deadline=None)
    @given(drawn_models, st.floats(0.5, 3.0), st.floats(0.0, 10.0),
           st.floats(0.0, 0.5))
    def test_no_power_in_range_does_better(self, model, rate, opp, alpha):
        # compares utilities, not positions: silence and transmission can tie
        model = dataclasses.replace(model, rate_scale=rate)
        cfg = PricingConfig(alpha)
        br = best_response_priced(model, (0.0, opp), 0, cfg)
        assert 0.0 <= br <= model.power_cap
        mu = effective_gain(model, (0.0, opp), 0)
        v = np.linspace(0.0, model.power_cap, 100_001)[1:]
        scan = rate * (-np.expm1(-mu * v)) ** model.packet_bits / v - alpha * v
        best = max(0.0, float(scan.max()))
        assert priced_utility(model, (br, opp), 0, cfg) >= best - 1e-12 * best


class TestBrDynamics:
    def test_matches_linear_solve_oracle(self, ref_model, ne_report):
        expected = linear_solve_ne(ref_model)
        assert ne_report.converged
        assert ne_report.solution.powers == pytest.approx(tuple(expected), abs=1e-8)

    def test_trace_and_residual_contract(self, ne_report):
        assert len(ne_report.trace) == ne_report.iterations + 1
        assert ne_report.trace[0] == (5.0, 5.0)
        assert ne_report.residual <= ne_report.tolerance

    def test_init_independence(self, ref_model, ne_report):
        from_zero = br_dynamics(ref_model, init=(0.0, 0.0))
        assert from_zero.converged
        for a, b in zip(from_zero.solution.powers, ne_report.solution.powers):
            assert abs(a - b) <= 10 * ne_report.tolerance

    def test_decoupled_model_converges_immediately(self):
        model = make_model(gains=((0.75, 0.0), (0.0, 1.0)))
        report = br_dynamics(model)
        expected = tuple(min(model.power_cap,
                             gamma_star(20) / (4.0 * model.gains[k][k]))
                         for k in range(2))
        assert report.trace[1] == pytest.approx(expected, rel=1e-15)
        assert report.solution.powers == pytest.approx(expected, rel=1e-15)

    def test_nonconvergence_is_reported_not_raised(self, ref_model):
        report = br_dynamics(ref_model, max_iter=1)
        assert not report.converged
        assert report.residual > report.tolerance
        assert report.iterations == 1

    def test_stops_only_when_the_residual_is_within_tol(self):
        # here the step first falls to 1e-10 at sweep 33, while the next
        # sweep still moves 1.03e-10
        model = make_model(gains=((1.1769, 0.1793), (0.4802, 0.5581)),
                           power_cap=7.6279, packet_bits=36)
        calls = []

        def counted(model, profile, k):
            calls.append(k)
            return best_response_ee(model, profile, k)

        report = br_dynamics(model, responder=counted)
        assert report.converged and report.residual <= 1e-10
        assert 33 < report.iterations <= 38
        assert len(calls) == 2 * (report.iterations + 1)
        assert report.solution.powers == pytest.approx(tuple(linear_solve_ne(model)),
                                                       rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(drawn_models, st.one_of(st.none(), st.floats(0.0, 0.3)))
    def test_same_result_where_the_step_rule_converged(self, model, alpha):
        responder = (best_response_ee if alpha is None
                     else priced_responder(PricingConfig(alpha)))
        tol = 1e-10 if alpha is None else 1e-7
        profile, trace, residual = step_rule_dynamics(model, responder, tol, 300)
        assume(residual <= tol)
        report = br_dynamics(model, responder=responder, tol=tol, max_iter=300)
        assert report.converged
        assert (report.solution.powers, report.trace, report.residual) == (
            profile, trace, residual)

    def test_max_iter_validated(self, ref_model):
        with pytest.raises(ValueError, match="max_iter"):
            br_dynamics(ref_model, max_iter=0)

    @pytest.mark.parametrize("model,alpha", [
        (make_model(gains=((1.4586, 0.5235), (0.2560, 0.7905)), noise_power=2.7731,
                    power_cap=13.6364, packet_bits=29, rate_scale=2.2375), 0.05),
        (make_model(), 0.12)])
    def test_priced_dynamics_settle_at_br_tol(self, model, alpha):
        # on the first network a priced response with a ~1e-8 noise floor
        # orbits a period-3 cycle for all 10,000 sweeps
        report = br_dynamics(model, responder=priced_responder(PricingConfig(alpha)),
                             tol=1e-10)
        assert report.converged
        assert report.iterations < 100

    def test_priced_fixed_point(self, ref_model):
        responder = priced_responder(PricingConfig(0.12))
        report = br_dynamics(ref_model, responder=responder, tol=1e-7)
        assert report.converged
        assert report.solution.powers == pytest.approx((2.17, 1.57), abs=0.01)


class TestNeContinuous:
    @settings(max_examples=100, deadline=None)
    @given(drawn_models)
    def test_interior_equilibrium_solves_the_linear_system(self, model):
        # unpriced best responses are affine in the opponent's power, so an
        # interior NE solves a 2x2 system; contraction makes it unique
        g, w, gs = model.gains, model.processing_gain, gamma_star(model.packet_bits)
        assume(gs ** 2 * g[0][1] * g[1][0] < 0.9 * w ** 2 * g[0][0] * g[1][1])
        expected = linear_solve_ne(model)
        assume(all(0.0 < e < model.power_cap for e in expected))
        report = ne_continuous(model)
        assert report.converged
        assert report.solution.powers == pytest.approx(tuple(expected), rel=1e-7)

    def test_equilibrium_sinrs_at_gamma_star(self, ne_report):
        gs = gamma_star(20)
        for g in ne_report.sinrs:
            assert g == pytest.approx(gs, rel=1e-8)

    def test_power_ratio(self, ne_report):
        s1, s2 = ne_report.solution.powers
        assert s1 / s2 == pytest.approx(1.52, abs=0.02)

    def test_normalized_utilities(self, ne_report):
        assert ne_report.normalized_utilities == pytest.approx((0.269, 0.407),
                                                               abs=0.003)

    def test_homogeneity_of_equilibrium(self, ref_model, ne_report):
        c = 3.7
        scaled = make_model(noise_power=c, power_cap=5.0 * c)
        report = ne_continuous(scaled)
        assert report.solution.powers == pytest.approx(
            tuple(v * c for v in ne_report.solution.powers), rel=1e-9)
        assert report.normalized_utilities == pytest.approx(
            ne_report.normalized_utilities, rel=1e-9)
        assert report.sinrs == pytest.approx(ne_report.sinrs, rel=1e-9)

    def test_symmetric_model_symmetric_solution(self, symmetric_model):
        report = ne_continuous(symmetric_model)
        s1, s2 = report.solution.powers
        assert abs(s1 - s2) <= 1e-9


class TestSolveReport:
    def test_dict_round_trip(self, ne_report):
        clone = SolveReport.from_dict(ne_report.to_dict())
        assert clone == ne_report

    def test_trace_length_invariant(self):
        with pytest.raises(ValueError, match="iterations"):
            SolveReport(solution=PowerProfile((1.0,) * 2), utilities=(0.0, 0.0),
                        normalized_utilities=(0.0, 0.0), sinrs=(0.0, 0.0),
                        iterations=3, trace=((1.0, 1.0),), converged=False,
                        residual=1.0, tolerance=1e-10)

    def test_convergence_invariant(self):
        with pytest.raises(ValueError, match="residual"):
            SolveReport(solution=PowerProfile((1.0,) * 2), utilities=(0.0, 0.0),
                        normalized_utilities=(0.0, 0.0), sinrs=(0.0, 0.0),
                        iterations=0, trace=((1.0, 1.0),), converged=True,
                        residual=1.0, tolerance=1e-10)

    def test_trace_csv_layout(self, ref_model, ne_report):
        header, rows = trace_csv_rows(ref_model, ne_report)
        assert header == ["iter", "s_1", "s_2", "u_1", "u_2", "gamma_1", "gamma_2"]
        assert len(rows) == len(ne_report.trace)
        first = rows[0]
        assert first[0] == 0 and tuple(first[1:3]) == ne_report.trace[0]
        last = rows[-1]
        assert tuple(last[3:5]) == pytest.approx(ne_report.utilities, rel=1e-12)
        assert tuple(last[5:7]) == pytest.approx(ne_report.sinrs, rel=1e-12)
