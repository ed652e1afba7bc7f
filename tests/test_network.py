"""Channel-layer checks: validation, gain algebra, SINR."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from icpower import (NetworkModel, PowerProfile, PricingConfig, SolveReport,
                     best_response_ee, best_response_priced, br_dynamics, ee_utility,
                     effective_gain, gamma_star, packet_throughput, priced_utility, sinr,
                     trace_csv_rows, utility_point)
from icpower.network import power_tuple

from conftest import make_model


class TestNetworkModelValidation:
    def test_reference_model_builds(self, ref_model):
        assert len(ref_model.gains) == 2

    def test_gains_must_be_square(self):
        with pytest.raises(ValueError, match="square"):
            make_model(gains=((0.75, 0.5, 0.1), (0.25, 1.0, 0.1)))

    def test_needs_two_players(self):
        with pytest.raises(ValueError, match=r"^gains: need exactly 2 players, got 1$"):
            make_model(gains=((1.0,),))
        with pytest.raises(ValueError, match=r"^gains: need exactly 2 players, got 3$"):
            make_model(gains=((1.0, 0.1, 0.1), (0.1, 1.0, 0.1), (0.1, 0.1, 1.0)))

    def test_negative_cross_gain_rejected(self):
        with pytest.raises(ValueError, match=r"gains\[0\]\[1\] must be >= 0"):
            make_model(gains=((0.75, -0.5), (0.25, 1.0)))

    def test_zero_direct_gain_rejected(self):
        with pytest.raises(ValueError, match=r"gains\[1\]\[1\].*> 0"):
            make_model(gains=((0.75, 0.5), (0.25, 0.0)))

    @pytest.mark.parametrize("field,value,match", [
        ("noise_power", 0.0, "noise_power"),
        ("noise_power", -1.0, "noise_power"),
        ("processing_gain", 0.5, "processing_gain"),
        ("power_cap", 0.0, "power_cap"),
        ("packet_bits", 0, "packet_bits"),
        ("packet_bits", 1, "from 2 to"),
        ("packet_bits", 2.5, "packet_bits"),
        ("rate_scale", 0.0, "rate_scale"),
        ("noise_power", math.inf, "noise_power must be finite"),
    ])
    def test_scalar_field_validation(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            make_model(**{field: value})

    @pytest.mark.parametrize("field,value,match", [
        ("packet_bits", 2 ** 53 + 1, r"packet_bits must be an integer from 2 to 2\*\*53"),
        ("packet_bits", 10 ** 400, r"packet_bits must be an integer from 2 to 2\*\*53"),
        ("rate_scale", 1e-320, "noise_power / rate_scale must be finite"),
        ("noise_power", 1e-308, r"processing_gain \* gains\[0\]\[0\] / noise_power "
                                "must be finite"),
        ("rate_scale", 1e308, r"rate_scale \* processing_gain \* gains\[0\]\[0\] / "
                              "noise_power must be finite"),
        ("gains", ((math.nan, 0.5), (0.25, 1.0)), r"gains\[0\]\[0\] must be finite"),
    ], ids=["packet_bits-past-2**53", "packet_bits-past-float", "noise-over-rate-overflows",
            "sinr-per-watt-overflows", "utility-bound-overflows", "nan-gain"])
    def test_values_the_solvers_cannot_represent(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            make_model(**{field: value})

    def test_largest_packet_bits_keeps_gamma_star_in_its_bracket(self):
        assert gamma_star(make_model(packet_bits=2 ** 53).packet_bits) < 50.0

    def test_gains_round_trip(self, ref_model):
        gains = ref_model.gains
        assert len(gains) == 2 and all(len(row) == 2 for row in gains)
        assert gains[0][1] == 0.5 and gains[1][0] == 0.25

    def test_gains_coerced_to_floats(self):
        model = make_model(gains=((1, 1), (1, 2)))
        assert model.gains == ((1.0, 1.0), (1.0, 2.0))


class TestPowerProfile:
    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match=r"powers\[1\] must be >= 0"):
            PowerProfile((1.0, -0.1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_power_rejected(self, bad):
        with pytest.raises(ValueError, match=r"powers\[0\] must be finite"):
            PowerProfile((bad, 1.0))

    def test_normalized(self):
        assert PowerProfile((3.0, 1.0)).normalized(2.0) == (1.5, 0.5)

    def test_power_tuple_accepts_profile_list_array(self):
        expected = (1.0, 2.0)
        assert power_tuple(PowerProfile(expected)) == expected
        assert power_tuple([1, 2]) == expected
        assert power_tuple(np.array([1.0, 2.0])) == expected

    def test_power_tuple_length_mismatch(self):
        with pytest.raises(ValueError, match=r"^profile has 3 entries, model has 2 players$"):
            power_tuple((1.0, 2.0, 3.0))
        # the entries are checked first
        with pytest.raises(ValueError, match=r"powers\[2\] must be >= 0"):
            power_tuple((1.0, 2.0, -3.0))

    @pytest.mark.parametrize("powers", [(1.0,), (1.0, 2.0, 3.0)], ids=["one", "three"])
    def test_profile_is_a_pair(self, powers):
        with pytest.raises(ValueError, match=rf"^profile has {len(powers)} entries, "
                                             r"model has 2 players$"):
            PowerProfile(powers)


# the public functions that take a raw profile; each checks it as it coerces it
ENTRY_POINTS = {
    "PowerProfile": lambda m, p: PowerProfile(p),
    "effective_gain": lambda m, p: effective_gain(m, p, 0),
    "sinr": lambda m, p: sinr(m, p, 0),
    "ee_utility": lambda m, p: ee_utility(m, p, 0),
    "best_response_ee": lambda m, p: best_response_ee(m, p, 0),
    "best_response_priced": lambda m, p: best_response_priced(m, p, 0, PricingConfig(0.12)),
    "priced_utility": lambda m, p: priced_utility(m, p, 0, PricingConfig(0.12)),
    "br_dynamics": lambda m, p: br_dynamics(m, init=p),
    "utility_point": utility_point,
    "trace_csv_rows": lambda m, p: trace_csv_rows(m, SolveReport(
        (tuple(p), (1.0, 1.0)), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0), 1.0, 1e-10, "max_iter")),
}


class TestProfileCheckedWhereCoerced:
    @pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
    @settings(max_examples=30, deadline=None)
    @given(bad=st.one_of(st.floats(max_value=-math.ulp(0.0), allow_infinity=False),
                         st.sampled_from([math.nan, math.inf, -math.inf])),
           good=st.floats(min_value=0.0, max_value=5.0),
           at=st.integers(0, 1), as_list=st.booleans())
    @example(bad=-2.0, good=1.0, at=1, as_list=False)  # the interference cancels the noise
    @example(bad=-10.0, good=0.0, at=1, as_list=False)  # would give a negative best response
    @example(bad=math.nan, good=1.0, at=0, as_list=False)  # would give a NaN SINR
    @example(bad=-1.0, good=2.0, at=0, as_list=False)  # a negative SINR for utility_point
    def test_bad_entry_named(self, ref_model, call, bad, good, at, as_list):
        profile = [good, good]
        profile[at] = bad
        what = ">= 0" if math.isfinite(bad) else "finite"
        with pytest.raises(ValueError, match=rf"^powers\[{at}\] must be {what}$"):
            call(ref_model, profile if as_list else tuple(profile))

    def test_throughput_rejects_nan_sinr(self, ref_model):
        with pytest.raises(ValueError, match="sinr must be >= 0"):
            packet_throughput(math.nan, ref_model)


class TestSinr:
    def test_effective_gain_hand_value(self, ref_model):
        # receiver 1: 4 * 0.75 / (1 + 0.5 * s2)
        mu = effective_gain(ref_model, (0.0, 2.0), 0)
        assert math.isclose(mu, 4 * 0.75 / (1 + 0.5 * 2.0), rel_tol=1e-15)

    def test_effective_gain_ignores_own_power(self, ref_model):
        low = effective_gain(ref_model, (0.1, 2.0), 0)
        high = effective_gain(ref_model, (5.0, 2.0), 0)
        assert low == high

    def test_sinr_formula(self, ref_model):
        s = (2.5, 1.5)
        expected = 4 * 1.0 * s[1] / (1 + 0.25 * s[0])
        assert math.isclose(sinr(ref_model, s, 1), expected, rel_tol=1e-15)

    def test_zero_power_zero_sinr(self, ref_model):
        assert sinr(ref_model, (0.0, 3.0), 0) == 0.0

    def test_bad_player_index(self, ref_model):
        with pytest.raises(IndexError, match="out of range"):
            effective_gain(ref_model, (1.0, 1.0), 2)

    def test_interference_lowers_sinr(self, ref_model):
        quiet = sinr(ref_model, (2.0, 0.0), 0)
        jammed = sinr(ref_model, (2.0, 4.0), 0)
        assert jammed < quiet

    @given(scale=st.floats(min_value=0.01, max_value=1e3),
           s1=st.floats(min_value=0.0, max_value=5.0),
           s2=st.floats(min_value=0.0, max_value=5.0))
    def test_sinr_invariant_under_joint_scaling(self, scale, s1, s2):
        base = make_model()
        scaled = make_model(noise_power=scale, power_cap=5.0 * scale)
        for k in range(2):
            assert math.isclose(
                sinr(base, (s1, s2), k),
                sinr(scaled, (s1 * scale, s2 * scale), k),
                rel_tol=1e-12, abs_tol=1e-12)
