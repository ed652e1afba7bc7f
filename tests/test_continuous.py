"""Continuous game: throughput model, optimal SINR, best responses, dynamics."""
import dataclasses
import math
import random
import statistics
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from icpower import (DegenerateUtilityError, PowerProfile, PricingConfig,
                     SolveReport, best_response_ee, best_response_priced,
                     br_dynamics, ee_utility, gamma_star, ne_continuous,
                     packet_throughput, priced_responder, priced_utility)
from icpower import continuous
from icpower.continuous import _slope, _slope_peak, _slope_root, trace_csv_rows
from icpower.network import effective_gain, sinr
from icpower.numerics import bisect_root

from conftest import make_model

# root of 2*g*exp(-g) = 1 - exp(-g), frozen from an independent pre-build
# root-finder run
GAMMA_STAR_2 = 1.2564312086261695


def linear_solve_ne(model):
    """Independent interior-NE oracle: both SINRs pinned at gamma_star."""
    g = np.array(model.gains, dtype=float)
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


def max_iter_dynamics(model, responder, tol, max_iter, init=None):
    """The loop without the repeat check, which runs a cycle to max_iter.
    Returns (converged, profile, trace, residual)."""
    current = (model.power_cap,) * model.num_players if init is None else tuple(init)
    trace = [current]
    nxt = tuple(responder(model, current, k) for k in range(model.num_players))
    converged = False
    for _ in range(max_iter):
        trace.append(nxt)
        step = max(abs(a - b) for a, b in zip(nxt, current))
        current = nxt
        nxt = tuple(responder(model, current, k) for k in range(model.num_players))
        residual = max(abs(a - b) for a, b in zip(nxt, current))
        if step <= tol and residual <= tol:
            converged = True
            break
    return converged, current, tuple(trace), residual


# a network of the benchmark's pricing workload (seed 104, network 14) whose
# dynamics orbit a 2-cycle at alpha = 0.19182
SEED_104_NET_14 = make_model(gains=((0.6437, 0.5025), (0.5358, 1.1604)),
                             power_cap=4.4255, packet_bits=36)

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


def rounding_band(c, bits, g):
    """How far apart two sign changes of the computed h - c may lie near g:
    four times its rounding error (L ulps of c from q^(L-1), plus the
    cancellation in L g exp(-g) - q near gamma_star) over the slope of h."""
    q = -math.expm1(-g)
    err = sys.float_info.epsilon * (bits * c + q ** bits / (g * g))
    d = 1e-7 * (1.0 + g)
    return 4.0 * err * d / (_slope(g, bits) - _slope(g + d, bits))


def certified(f, g):
    """f(g) == 0, or f changes sign between g and an adjacent float."""
    fg = f(g)
    return fg == 0.0 or any((f(math.nextafter(g, t)) > 0.0) != (fg > 0.0)
                            for t in (0.0, math.inf))


class TestSlopeRoot:
    """The safeguarded secant root of h = c against the bisection on
    [peak, 50] that it replaced, kept here as the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 1000), st.floats(0.0, 1.0 - 1e-9, exclude_min=True))
    # c <= 1e-12 * max h: the root sits in gamma_star's cancellation band
    @example(20, 1e-12)
    @example(1000, 1e-15)
    @example(3, 1e-20)
    @example(2, 1e-13)
    # c within 1e-9 of max h: the root is next to the peak, where h' -> 0
    @example(3, 1.0 - 1e-9)
    @example(20, 1.0 - 1e-9)
    @example(1000, 1.0 - 1e-9)
    # L = 2, whose peak is the stand-in 1e-13
    @example(2, 1.0 - 1e-9)
    @example(2, 0.5)
    def test_matches_bisection(self, bits, u):
        # within 1e-13 relative, or within the band where the computed f has
        # several sign changes, each of which the bisection could return
        peak, top = _slope_peak(bits)
        c = u * top
        assume(0.0 < c < top)
        f = lambda g: _slope(g, bits) - c
        got = _slope_root(c, bits, peak)
        want = bisect_root(f, peak, 50.0, residual_tol=0.0)
        assert certified(f, got)
        assert abs(got - want) <= 1e-13 * got + rounding_band(c, bits, got)

    def test_work_per_response(self, monkeypatch):
        # counts evaluations of h, not time, so it reads the same on every
        # machine; the bisection on [peak, 50] spent about 59 per response
        rng = random.Random(17)
        calls = []

        def counted(g, bits):
            calls.append(g)
            return _slope(g, bits)

        monkeypatch.setattr(continuous, "_slope", counted)
        counts = []
        for _ in range(600):
            model = make_model(
                gains=((rng.uniform(0.3, 2.0), rng.uniform(0.0, 1.0)),
                       (rng.uniform(0.0, 1.0), rng.uniform(0.3, 2.0))),
                noise_power=rng.uniform(0.1, 3.0), processing_gain=rng.uniform(1.0, 16.0),
                power_cap=rng.uniform(0.5, 10.0), packet_bits=rng.randint(2, 60),
                rate_scale=rng.uniform(0.5, 3.0))
            _slope_peak(model.packet_bits)  # cached per L, so outside the count
            before = len(calls)
            best_response_priced(model, (0.0, rng.uniform(0.0, 10.0)), 0,
                                 PricingConfig(rng.uniform(0.0, 0.5)))
            if len(calls) > before:  # silence and alpha = 0 need no root
                counts.append(len(calls) - before)
        assert len(counts) >= 300
        assert max(counts) <= 25
        assert statistics.mean(counts) <= 10

    def test_two_bits_across_c(self, monkeypatch):
        # two points in f's noise band give a secant slope of either sign;
        # stepping on from them instead of stopping crawled by bisection
        # from the bracket's far end, up to 40 evaluations on these draws
        rng = random.Random(1)
        peak, top = _slope_peak(2)
        calls = []

        def counted(g, bits):
            calls.append(g)
            return _slope(g, bits)

        monkeypatch.setattr(continuous, "_slope", counted)
        counts = []
        for _ in range(3000):
            c = rng.uniform(0.0, 1.0) * top
            before = len(calls)
            _slope_root(c, 2, peak)
            counts.append(len(calls) - before)
        assert max(counts) <= 25

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 1000), st.floats(0.0, 1.0 - 1e-9, exclude_min=True))
    @example(1000, 1e-15)
    @example(2, 1.0 - 1e-9)
    @example(2, 1e-13)
    def test_no_point_is_evaluated_twice(self, bits, u):
        # the bracket's ends are handed to bisect_root, which must not
        # evaluate them again
        peak, top = _slope_peak(bits)
        c = u * top
        assume(0.0 < c < top)
        calls = []

        def counted(g, bits):
            calls.append(g)
            return _slope(g, bits)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(continuous, "_slope", counted)
            _slope_root(c, bits, peak)
        assert calls and peak not in calls  # h(peak) comes from the cache
        assert len(set(calls)) == len(calls)


class TestSlopeScaledDerivative:
    """L = 2, whose scaled h' cancels near 0, so that ``_slope_peak`` puts a
    stand-in just above 0 and the root uses no h'."""

    def test_two_bits_near_the_peak_takes_fewer_steps(self, monkeypatch):
        # roots within 1e-3 of 0.  Newton from gamma_star overshot past the
        # bracket's low end and the safeguard halved 13-21 times: about 28
        # evaluations of h each on these draws.  The first secant, through
        # (peak, gamma_star), lands within a factor 2.5 of the root, which is
        # about (1 - c) / 2; what is left past 25 is the certificate's bisection
        # where the computed h - c is noise, on roots below 1e-5
        rng = random.Random(18)
        peak, top = _slope_peak(2)
        calls = []

        def counted(g, bits):
            calls.append(g)
            return _slope(g, bits)

        monkeypatch.setattr(continuous, "_slope", counted)
        counts = []
        for _ in range(200):
            c = (1.0 - 10.0 ** rng.uniform(-14.0, -3.0)) * top
            before = len(calls)
            got = _slope_root(c, 2, peak)
            counts.append(len(calls) - before)
            assert certified(lambda g: _slope(g, 2) - c, got)
            assert got < 1e-5 or counts[-1] <= 25
        assert statistics.mean(counts) <= 15


class TestVanishingSinrPerWatt:
    """Where mu, or t * mu^2, underflows to 0 the responses take mu -> 0+."""

    @pytest.mark.parametrize("direct, noise", [(1e-150, 1.0), (1e-300, 1.0), (1e-320, 1e10)])
    def test_limits(self, direct, noise):
        model = make_model(gains=((direct, 0.5), (0.25, 1.0)), noise_power=noise)
        opp = (0.0, 1.0)
        assert best_response_ee(model, opp, 0) == model.power_cap
        assert best_response_priced(model, opp, 0, PricingConfig(0.12)) == 0.0
        if effective_gain(model, opp, 0) ** 2 == 0.0:  # priced alpha = 0 is unpriced
            assert best_response_priced(model, opp, 0, PricingConfig(0.0)) == model.power_cap


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
        assert (report.termination, report.period) == ("max_iter", None)
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

    @settings(max_examples=60, deadline=None)
    @given(drawn_models, st.floats(0.0, 0.3))
    @example(make_model(), 0.15)
    @example(SEED_104_NET_14, 0.19182)
    def test_every_cycle_is_certified(self, model, alpha):
        # a cycle report must be an exact orbit of its period on which the
        # loop without the repeat check never converges; any other report is
        # that loop's report
        responder = priced_responder(PricingConfig(alpha))
        report = br_dynamics(model, responder=responder, tol=1e-7, max_iter=300)
        converged, profile, trace, residual = max_iter_dynamics(
            model, responder, 1e-7, 300)
        if report.termination != "cycle":
            assert (report.converged, report.solution.powers, report.trace,
                    report.residual) == (converged, profile, trace, residual)
            return
        assert not converged
        assert report.trace == trace[:len(report.trace)]
        assert len(set(report.trace)) == len(report.trace) - 1
        point = report.solution.powers
        for _ in range(report.period):
            point = tuple(responder(model, point, k) for k in range(2))
        assert point == report.solution.powers
        assert report.trace[-1 - report.period] == point

    def test_reference_network_cycles_at_alpha_015(self, ref_model):
        # the best response jumps to silence against high opponent power,
        # and the synchronous dynamics orbit a 4-cycle
        report = br_dynamics(ref_model, responder=priced_responder(PricingConfig(0.15)))
        assert (report.termination, report.period, report.converged) == ("cycle", 4, False)
        assert report.iterations <= 16
        assert len(report.trace) == report.iterations + 1
        assert report.trace[-1] == report.trace[-5] == report.solution.powers

    def test_period_two_orbit_through_silence(self):
        # both players fall silent against the cap, and transmit against silence
        report = br_dynamics(SEED_104_NET_14,
                             responder=priced_responder(PricingConfig(0.19182)))
        assert (report.termination, report.period, report.iterations) == ("cycle", 2, 3)
        assert report.trace[1] == report.trace[3] == (0.0, 0.0)
        assert report.trace[2] == pytest.approx((1.7330, 1.0643), abs=1e-4)

    def test_slow_convergence_is_not_read_as_a_cycle(self, ref_model):
        # the period-2 distance of x' = 1 - 0.9 (x - 1) falls below 1e-10 at
        # sweep 205, long before the step and the residual do
        def damped(model, profile, k):
            return 1.0 - 0.9 * (profile[k] - 1.0)

        report = br_dynamics(ref_model, responder=damped, init=(2.0, 2.0))
        converged, profile, trace, residual = max_iter_dynamics(
            ref_model, damped, 1e-10, 10_000, init=(2.0, 2.0))
        assert (report.termination, report.iterations) == ("converged", 226)
        assert (report.converged, report.solution.powers, report.trace,
                report.residual) == (converged, profile, trace, residual)

    def test_max_iter_validated(self, ref_model):
        with pytest.raises(ValueError, match="max_iter"):
            br_dynamics(ref_model, max_iter=0)

    def test_max_iter_needs_the_step_within_tol_too(self, ref_model):
        # at sweep 32 the residual is within tol but the last step is not; the
        # run converges one sweep later, when both are
        report = br_dynamics(ref_model, max_iter=32)
        assert (report.termination, report.converged) == ("max_iter", False)
        last_step = max(abs(a - b) for a, b in zip(*report.trace[-2:]))
        assert report.residual <= report.tolerance < last_step
        full = br_dynamics(ref_model)
        assert (full.termination, full.iterations) == ("converged", 33)

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


def report_fields(**overrides):
    fields = dict(solution=PowerProfile((1.0,) * 2), utilities=(0.0, 0.0),
                  normalized_utilities=(0.0, 0.0), sinrs=(0.0, 0.0),
                  iterations=0, trace=((1.0, 1.0),), converged=False,
                  residual=1.0, tolerance=1e-10, termination="max_iter")
    fields.update(overrides)
    return fields


class TestSolveReport:
    def test_dict_round_trip(self, ne_report):
        clone = SolveReport.from_dict(ne_report.to_dict())
        assert clone == ne_report

    def test_cycle_round_trip(self, ref_model):
        report = br_dynamics(ref_model, responder=priced_responder(PricingConfig(0.15)))
        data = report.to_dict()
        assert (data["termination"], data["period"]) == ("cycle", 4)
        assert SolveReport.from_dict(data) == report

    @pytest.mark.parametrize("converged,termination", [(True, "converged"),
                                                      (False, "max_iter")])
    def test_loads_reports_without_termination(self, converged, termination):
        data = SolveReport(**report_fields(converged=converged, residual=0.0,
                                           termination=termination)).to_dict()
        del data["termination"], data["period"]
        report = SolveReport.from_dict(data)
        assert (report.termination, report.period) == (termination, None)

    def test_trace_length_invariant(self):
        with pytest.raises(ValueError, match="iterations"):
            SolveReport(solution=PowerProfile((1.0,) * 2), utilities=(0.0, 0.0),
                        normalized_utilities=(0.0, 0.0), sinrs=(0.0, 0.0),
                        iterations=3, trace=((1.0, 1.0),), converged=False,
                        residual=1.0, tolerance=1e-10, termination="max_iter")

    @pytest.mark.parametrize("load", [
        lambda: SolveReport(**report_fields(iterations=-1, trace=())),
        lambda: SolveReport.from_dict({**SolveReport(**report_fields()).to_dict(),
                                       "solution": [2.0, 1.0]}),
    ], ids=["empty", "loaded-off-the-end"])
    def test_trace_ends_at_solution(self, load):
        with pytest.raises(ValueError, match="end at the solution"):
            load()

    def test_convergence_invariant(self):
        with pytest.raises(ValueError, match="residual"):
            SolveReport(solution=PowerProfile((1.0,) * 2), utilities=(0.0, 0.0),
                        normalized_utilities=(0.0, 0.0), sinrs=(0.0, 0.0),
                        iterations=0, trace=((1.0, 1.0),), converged=True,
                        residual=1.0, tolerance=1e-10, termination="converged")

    def test_unknown_termination_rejected(self):
        with pytest.raises(ValueError, match="termination must be one of"):
            SolveReport(**report_fields(termination="stalled"))

    @pytest.mark.parametrize("converged,termination", [
        (True, "max_iter"), (True, "cycle"), (False, "converged")])
    def test_converged_matches_termination(self, converged, termination):
        with pytest.raises(ValueError, match="converged must hold"):
            SolveReport(**report_fields(converged=converged, residual=0.0,
                                        termination=termination, period=2))

    @pytest.mark.parametrize("termination,period", [
        ("cycle", None), ("cycle", 1), ("cycle", 2.0), ("cycle", "2"),
        ("max_iter", 2), ("converged", 3)])
    def test_period_exactly_for_cycles(self, termination, period):
        with pytest.raises(ValueError, match="period"):
            SolveReport(**report_fields(converged=termination == "converged",
                                        residual=0.0, termination=termination,
                                        period=period))

    def test_trace_csv_layout(self, ref_model, ne_report):
        header, rows = trace_csv_rows(ref_model, ne_report)
        assert header == ["iter", "s_1", "s_2", "u_1", "u_2", "gamma_1", "gamma_2"]
        assert len(rows) == len(ne_report.trace)
        first = rows[0]
        assert first[0] == 0 and tuple(first[1:3]) == ne_report.trace[0]
        last = rows[-1]
        assert tuple(last[3:5]) == pytest.approx(ne_report.utilities, rel=1e-12)
        assert tuple(last[5:7]) == pytest.approx(ne_report.sinrs, rel=1e-12)
