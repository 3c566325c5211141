from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sotifkit import (
    NO_CLOSING,
    VehicleParams,
    effective_brake_decel,
    rss_min_distance,
    ttc,
)
from sotifkit.errors import ParameterError

speeds = st.floats(min_value=0.0, max_value=60.0)
response_times = st.floats(min_value=0.0, max_value=5.0)
accels = st.floats(min_value=0.0, max_value=8.0)
brakes = st.floats(min_value=0.1, max_value=12.0)


def vehicles(**overrides):
    base = dict(v_r=speeds, rho=response_times, a_max_accel=accels, a_min_brake=brakes)
    base.update(overrides)
    return st.builds(VehicleParams, **base)


class TestRssMinDistance:
    def test_documented_parameter_set(self, baseline_vehicle):
        # Term-by-term desk evaluation of the three contributions.
        v, rho, a_acc, a_brk = 50.0 / 3.6, 1.0, 2.0, 5.0
        oracle = v * rho + 0.5 * a_acc * rho**2 + (v + rho * a_acc) ** 2 / (2 * a_brk)
        assert rss_min_distance(baseline_vehicle) == pytest.approx(oracle, abs=1e-12)
        assert rss_min_distance(baseline_vehicle) == pytest.approx(40.135, abs=1e-3)

    def test_all_terms_vanish(self):
        p = VehicleParams(v_r=0.0, rho=0.0, a_max_accel=2.0, a_min_brake=5.0)
        assert rss_min_distance(p) == 0.0

    def test_term_by_term_oracle(self):
        # 10*0.5 + 0.5*2*0.25 + 11^2/8
        p = VehicleParams(v_r=10.0, rho=0.5, a_max_accel=2.0, a_min_brake=4.0)
        assert rss_min_distance(p) == pytest.approx(5.0 + 0.25 + 121.0 / 8.0, abs=1e-9)
        assert rss_min_distance(p) == pytest.approx(20.375, abs=1e-9)

    @given(vehicles())
    def test_nonnegative(self, p):
        assert rss_min_distance(p) >= 0.0

    @given(vehicles(), st.floats(min_value=0.01, max_value=20.0))
    def test_monotone_in_speed(self, p, bump):
        larger = VehicleParams(p.v_r + bump, p.rho, p.a_max_accel, p.a_min_brake)
        assert rss_min_distance(larger) >= rss_min_distance(p)

    @given(vehicles(), st.floats(min_value=0.01, max_value=5.0))
    def test_monotone_in_response_time(self, p, bump):
        larger = VehicleParams(p.v_r, p.rho + bump, p.a_max_accel, p.a_min_brake)
        assert rss_min_distance(larger) >= rss_min_distance(p)

    @given(vehicles(), st.floats(min_value=0.01, max_value=5.0))
    def test_monotone_in_acceleration(self, p, bump):
        larger = VehicleParams(p.v_r, p.rho, p.a_max_accel + bump, p.a_min_brake)
        assert rss_min_distance(larger) >= rss_min_distance(p)

    @given(vehicles(), st.floats(min_value=0.01, max_value=10.0))
    def test_antitone_in_braking(self, p, bump):
        stronger = VehicleParams(p.v_r, p.rho, p.a_max_accel, p.a_min_brake + bump)
        assert rss_min_distance(stronger) <= rss_min_distance(p)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(v_r=-1.0, rho=1.0, a_max_accel=2.0, a_min_brake=5.0),
            dict(v_r=1.0, rho=-0.1, a_max_accel=2.0, a_min_brake=5.0),
            dict(v_r=1.0, rho=1.0, a_max_accel=-2.0, a_min_brake=5.0),
            dict(v_r=1.0, rho=1.0, a_max_accel=2.0, a_min_brake=0.0),
            dict(v_r=math.nan, rho=1.0, a_max_accel=2.0, a_min_brake=5.0),
            dict(v_r=math.inf, rho=1.0, a_max_accel=2.0, a_min_brake=5.0),
            # finite, but rss_min_distance overflows (raising, or to inf)
            dict(v_r=1e300, rho=1.0, a_max_accel=2.0, a_min_brake=5.0),
            dict(v_r=1.0, rho=1.0, a_max_accel=2.0, a_min_brake=1e-310),
        ],
    )
    def test_domain_errors(self, kwargs):
        with pytest.raises(ParameterError):
            VehicleParams(**kwargs)


class TestTtc:
    def test_division_oracle(self):
        assert ttc(40.135, 13.889) == pytest.approx(40.135 / 13.889, abs=1e-12)
        assert ttc(40.135, 13.889) == pytest.approx(2.890, abs=1e-3)

    def test_zero_gap(self):
        assert ttc(0.0, 5.0) == 0.0

    def test_no_closing_signal(self):
        assert ttc(10.0, 0.0) is NO_CLOSING
        assert math.isinf(ttc(10.0, 0.0))

    def test_negative_gap_rejected(self):
        with pytest.raises(ParameterError):
            ttc(-1.0, 5.0)

    @given(
        st.floats(min_value=0.1, max_value=500.0),
        st.floats(min_value=0.1, max_value=60.0),
        st.floats(min_value=1.1, max_value=10.0),
    )
    def test_scaling(self, gap, v, k):
        # Linear in gap, inverse in closing speed.
        assert ttc(k * gap, v) == pytest.approx(k * ttc(gap, v), rel=1e-12)
        assert ttc(gap, k * v) == pytest.approx(ttc(gap, v) / k, rel=1e-12)


class TestEffectiveBrakeDecel:
    def test_identity_at_nominal_friction(self, baseline_vehicle):
        assert effective_brake_decel(baseline_vehicle, 1.0) == 5.0

    def test_linear_scaling(self, baseline_vehicle):
        assert effective_brake_decel(baseline_vehicle, 0.5) == 2.5
        p = VehicleParams(v_r=10.0, rho=1.0, a_max_accel=2.0, a_min_brake=4.0)
        assert effective_brake_decel(p, 0.25) == 1.0

    @pytest.mark.parametrize("mu", [0.0, -0.5, 1.01, math.nan])
    def test_domain(self, baseline_vehicle, mu):
        with pytest.raises(ParameterError):
            effective_brake_decel(baseline_vehicle, mu)
