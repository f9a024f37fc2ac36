"""Link-model oracles: hand-evaluated values frozen into assertions, plus
monotonicity properties."""

import csv
import math

import pytest
from hypothesis import given, strategies as st

from hybridsim import channel
from hybridsim.channel import (friis_rx_power, gfsk_ber, lambertian_order, ook_ber,
                               owc_channel_gain, owc_snr_db, packet_success, snr_db)
from hybridsim.scenario import Scenario, ScenarioError
from hybridsim.validation import default_ber_fixture_path


class TestFriis:
    def test_one_meter_reference(self):
        # 20*log10(4*pi*1*2.4e9/c) = 40.05 dB free-space loss
        # at the 2.4 GHz carrier
        cfg = Scenario(ble_tx_power_dbm=0.0, distance_m=1.0)
        assert friis_rx_power(cfg) == pytest.approx(-40.05, abs=0.01)

    def test_doubling_distance_costs_six_db(self):
        near = friis_rx_power(Scenario(distance_m=1.0))
        far = friis_rx_power(Scenario(distance_m=2.0))
        assert near - far == pytest.approx(20 * math.log10(2), abs=1e-9)

    def test_linear_in_tx_power(self):
        lo = friis_rx_power(Scenario(ble_tx_power_dbm=0.0))
        hi = friis_rx_power(Scenario(ble_tx_power_dbm=8.0))
        assert hi - lo == pytest.approx(8.0, abs=1e-12)

    def test_zero_distance_rejected(self):
        with pytest.raises(ScenarioError, match="distance_m"):
            Scenario(distance_m=0.0)

    @given(st.floats(min_value=0.1, max_value=50.0),
           st.floats(min_value=0.01, max_value=10.0))
    def test_strictly_decreasing_with_distance(self, d, step):
        assert (friis_rx_power(Scenario(distance_m=d))
                > friis_rx_power(Scenario(distance_m=d + step)))


class TestSnr:
    def test_noise_floor_reference(self):
        # -174 dBm/Hz + 60 dB of bandwidth = -114 dBm floor
        assert snr_db(-40.0, 0.0, 1e6) == pytest.approx(74.0, abs=1e-9)

    def test_noise_figure_subtracts(self):
        assert snr_db(-40.0, 3.0, 1e6) == pytest.approx(71.0, abs=1e-9)

    def test_bandwidth_decade_costs_ten_db(self):
        assert snr_db(-40.0, 0.0, 1e7) == pytest.approx(64.0, abs=1e-9)

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            snr_db(-40.0, 0.0, 0.0)


class TestGfsk:
    def test_uninformative_channel_saturates(self):
        assert gfsk_ber(-math.inf) == 0.5
        assert gfsk_ber(-60.0) == pytest.approx(0.5, abs=1e-3)

    def test_operating_point(self):
        assert gfsk_ber(18.0, "1M") < 1e-6

    def test_two_mbit_shift_is_exactly_three_db(self):
        for snr in (-5.0, 0.0, 3.0, 7.5, 12.0, 18.0):
            assert gfsk_ber(snr, "2M") == gfsk_ber(snr - 3.0, "1M")

    @given(st.floats(min_value=-30, max_value=30),
           st.floats(min_value=0, max_value=20))
    def test_monotone_non_increasing(self, snr, step):
        assert gfsk_ber(snr) >= gfsk_ber(snr + step)

    def test_matches_independent_quadrature_oracle(self):
        # The fixture was produced by numerically integrating the Gaussian
        # tail; spot-check the analytic implementation against it.
        scipy_integrate = pytest.importorskip("scipy.integrate")
        with default_ber_fixture_path().open(newline="") as fh:
            rows = [(float(r["snr_db"]), float(r["ber"])) for r in csv.DictReader(fh)]
        for snr, ber_ref in rows[::8]:
            gamma = 10 ** (snr / 10.0)
            x = math.sqrt(2 * gamma * channel.GFSK_EFFECTIVE_DISTANCE)
            oracle, _ = scipy_integrate.quad(
                lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi), x, x + 60,
                epsabs=0.0, epsrel=1e-12, limit=200)
            assert ber_ref == pytest.approx(oracle, rel=1e-9, abs=1e-300)
            assert gfsk_ber(snr) == pytest.approx(ber_ref, rel=1e-6, abs=1e-300)


class TestOpticalChannel:
    def _cfg(self, **kw):
        defaults = dict(led_semi_angle_deg=60.0, pd_area_m2=1e-4, pd_fov_deg=60.0,
                        concentrator_gain=1.0, distance_m=1.0, incidence_angle_deg=0.0)
        defaults.update(kw)
        return Scenario(**defaults)

    def test_boresight_reference_value(self):
        # m=1 at 60 deg semi-angle: H = 2*A/(2*pi*d^2)
        gain = owc_channel_gain(self._cfg())
        assert gain == pytest.approx(2e-4 / (2 * math.pi), rel=1e-9)

    def test_lambertian_order_at_sixty_degrees_is_one(self):
        assert lambertian_order(60.0) == pytest.approx(1.0, rel=1e-12)

    def test_outside_fov_is_exactly_zero(self):
        cfg = self._cfg(pd_fov_deg=20.0, incidence_angle_deg=30.0)
        assert owc_channel_gain(cfg) == 0.0

    @pytest.mark.parametrize("fov", [1.0, 45.0, 60.0, 89.5])
    def test_fov_edge_is_inside_and_the_next_float_outside(self, fov):
        edge = self._cfg(pd_fov_deg=fov, incidence_angle_deg=fov)
        assert owc_channel_gain(edge) > 0.0
        past = self._cfg(pd_fov_deg=fov, incidence_angle_deg=math.nextafter(fov, math.inf))
        assert owc_channel_gain(past) == 0.0

    @pytest.mark.parametrize("semi_angle", [20.0, 45.0, 60.0, 75.0])
    @pytest.mark.parametrize("theta", [10.0, 30.0, 59.0, 89.0])
    def test_gain_falls_as_cos_to_the_m_plus_one(self, semi_angle, theta):
        # emission and incidence angle are both theta: cos^m * cos
        cfg = self._cfg(led_semi_angle_deg=semi_angle, pd_fov_deg=90.0)
        m = lambertian_order(semi_angle)
        expected = owc_channel_gain(cfg) * math.cos(math.radians(theta)) ** (m + 1.0)
        tilted = owc_channel_gain(self._cfg(led_semi_angle_deg=semi_angle, pd_fov_deg=90.0,
                                            incidence_angle_deg=theta))
        assert tilted == pytest.approx(expected, rel=1e-12)

    def test_inverse_square(self):
        near = owc_channel_gain(self._cfg(distance_m=1.0))
        far = owc_channel_gain(self._cfg(distance_m=2.0))
        assert near / far == pytest.approx(4.0, rel=1e-9)

    def test_zero_distance_rejected(self):
        with pytest.raises(ScenarioError, match="distance_m"):
            self._cfg(distance_m=0.0)

    def test_angle_validation(self):
        with pytest.raises(ValueError):
            Scenario(led_semi_angle_deg=95.0)
        with pytest.raises(ValueError):
            Scenario(pd_fov_deg=0.0)


class TestOpticalSnr:
    def test_zero_gain_sentinel(self):
        assert owc_snr_db(Scenario(), 0.0) == -math.inf

    def test_underflowing_signal_power_is_the_sentinel(self):
        # A narrow beam seen 85 deg off axis: the gain is positive, but the
        # squared photocurrent underflows to zero.
        cfg = Scenario(incidence_angle_deg=85.0, led_semi_angle_deg=5.0, pd_fov_deg=90.0)
        assert 0.0 < owc_channel_gain(cfg) < 1e-160
        assert owc_snr_db(cfg, owc_channel_gain(cfg)) == -math.inf

    def test_doubling_power_adds_six_db(self):
        # tiny gain keeps the shot term background-dominated, so the noise is
        # effectively constant and the squared signal term doubles cleanly
        lo = owc_snr_db(Scenario(tx_optical_power_w=0.1), 1e-8)
        hi = owc_snr_db(Scenario(tx_optical_power_w=0.2), 1e-8)
        assert hi - lo == pytest.approx(20 * math.log10(2), abs=1e-3)

    def test_reference_geometry_finite_positive(self):
        # 1 m range, 30 deg emission and incidence, documented constants
        cfg = Scenario(distance_m=1.0, incidence_angle_deg=30.0)
        value = owc_snr_db(cfg, owc_channel_gain(cfg))
        assert value == pytest.approx(69.72, abs=0.05)

    def test_ook_saturates_and_decreases(self):
        assert ook_ber(-math.inf) == 0.5
        assert ook_ber(0.0) > ook_ber(10.0) > ook_ber(20.0)


class TestPacketSuccess:
    def test_perfect_channel(self):
        assert packet_success(0.0, 4096) == 1.0

    def test_empty_packet(self):
        assert packet_success(0.3, 0) == 1.0

    def test_reference_value(self):
        # (1 - 1e-3)^4096 for a 512-byte packet
        assert packet_success(1e-3, 4096) == pytest.approx(0.016605, abs=1e-5)


def test_linear_mover_perturbs_snr_and_wakes_the_predictor():
    from hybridsim.optimizer import ewma_update
    from test_optimizer import mobility_probability

    baseline = None
    p_still = p_moving = 0.0
    for step in range(30):
        # node stands still 1 m from the gateway for 15 samples, then walks
        # sideways at 1 m/s
        distance = math.hypot(1.0, max(0, step - 14))
        sample = snr_db(friis_rx_power(Scenario(distance_m=distance)), 7.0, 1e6)
        baseline = sample if baseline is None else ewma_update(baseline, sample, 0.2)
        p = mobility_probability(baseline, sample, 1.5, 3.0)
        if step == 14:
            p_still = p
        if step == 17:
            p_moving = p
    assert p_still < 0.05
    assert p_moving > 0.5
