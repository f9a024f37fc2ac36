"""Physical-layer link models: radio path loss with GFSK error rates and a
line-of-sight Lambertian optical channel.

Both link budgets read the star geometry straight from the scenario: every
node sits `distance_m` from the gateway, `incidence_angle_deg` off the
vertical. Everything here is a pure function over value types; nothing
mutates shared state, so these are safe to call from any thread.
"""

from __future__ import annotations

import math

SPEED_OF_LIGHT = 299792458.0
BOLTZMANN = 1.380649e-23
ELECTRON_CHARGE = 1.602176634e-19
THERMAL_NOISE_DBM_HZ = -174.0

# Effective distance of the coherent GFSK approximation at BT=0.5 and
# modulation index 0.5: BER = Q(sqrt(2 * gamma_b * GFSK_EFFECTIVE_DISTANCE)).
# This constant is the wire contract pinned by data/gfsk_ber_reference.csv.
GFSK_EFFECTIVE_DISTANCE = 0.68

# The radio's PHY rates in bits per ms. The 2 Mbit/s PHY halves energy per
# bit at fixed power: +3 dB required SNR.
PHY_BITS_PER_MS = {"1M": 1e3, "2M": 2e3}
PHY_RATE_SNR_SHIFT_DB = {"1M": 0.0, "2M": 3.0}

SNR_FLOOR_DB = -math.inf

# Carrier and receiver values that no scenario sets; the tunable link
# parameters are Scenario's [radio] and [optical] keys.
CARRIER_HZ = 2.4e9
OPTICAL_FILTER_GAIN = 1.0
BACKGROUND_CURRENT_A = 100e-6  # ambient-light photocurrent
LOAD_RESISTANCE_OHM = 10e3
RECEIVER_TEMPERATURE_K = 298.0
OPTICAL_BANDWIDTH_HZ = 1e6


def lambertian_order(semi_angle_deg: float) -> float:
    """Lambertian emission order m of an LED with the given half-power semi-angle."""
    return -math.log(2.0) / math.log(math.cos(math.radians(semi_angle_deg)))


def friis_rx_power(scenario) -> float:
    """Received power in dBm at the scenario's distance under free-space
    (Friis) propagation between isotropic (0 dBi) antennas."""
    fspl_db = 20.0 * math.log10(4.0 * math.pi * scenario.distance_m * CARRIER_HZ
                                / SPEED_OF_LIGHT)
    return scenario.ble_tx_power_dbm - fspl_db


def snr_db(rx_dbm: float, noise_figure_db: float, bandwidth_hz: float) -> float:
    """Channel SNR against the thermal floor (-174 dBm/Hz) plus noise figure."""
    noise_dbm = THERMAL_NOISE_DBM_HZ + 10.0 * math.log10(bandwidth_hz) + noise_figure_db
    return rx_dbm - noise_dbm


def _q_function(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def gfsk_ber(snr_value_db: float, phy_rate: str = "1M") -> float:
    """GFSK bit error rate versus per-bit SNR in dB.

    Coherent approximation BER = Q(sqrt(2 * gamma_b * delta)) with delta the
    effective distance for BT=0.5; gamma_b saturates the BER at 0.5 as the
    SNR falls. The 2M PHY applies its +3 dB required-SNR shift.
    """
    shifted = snr_value_db - PHY_RATE_SNR_SHIFT_DB[phy_rate]
    gamma_b = 10.0 ** (shifted / 10.0)
    return _q_function(math.sqrt(2.0 * gamma_b * GFSK_EFFECTIVE_DISTANCE))


def ble_link(scenario) -> tuple[float, float]:
    """SNR in dB and bit error rate of the radio link; the error rate follows
    the per-bit SNR at the PHY rate."""
    snr = snr_db(friis_rx_power(scenario), scenario.noise_figure_db, scenario.bandwidth_hz)
    bit_rate = PHY_BITS_PER_MS[scenario.ble_phy_rate] * 1e3
    eb = snr + 10.0 * math.log10(scenario.bandwidth_hz / bit_rate)
    return snr, gfsk_ber(eb, scenario.ble_phy_rate)


def owc_channel_gain(scenario) -> float:
    """Line-of-sight Lambertian channel gain (dimensionless).

    The gateway's LED faces down and the node's photodetector faces up, so
    the emission and incidence angles are both theta = incidence_angle_deg:
    H = (m+1) A / (2 pi d^2) * cos^m(theta) * T_f * g * cos(theta) within the
    photodetector field of view, zero outside it.
    """
    if scenario.incidence_angle_deg > scenario.pd_fov_deg:
        return 0.0
    d = scenario.distance_m
    cos_theta = math.cos(math.radians(scenario.incidence_angle_deg))
    m = lambertian_order(scenario.led_semi_angle_deg)
    return ((m + 1.0) * scenario.pd_area_m2 / (2.0 * math.pi * d * d)
            * cos_theta ** m
            * OPTICAL_FILTER_GAIN * scenario.concentrator_gain
            * cos_theta)


def owc_snr_db(scenario, gain: float) -> float:
    """Electrical SNR of the optical link, -inf sentinel for zero gain or a
    signal power that underflows to zero. A photocurrent or signal power
    that overflows raises OverflowError.

    Signal power is the squared photocurrent; noise is shot (signal plus
    background light) plus thermal noise of the receiver load.
    """
    photocurrent = scenario.responsivity_a_w * scenario.tx_optical_power_w * gain
    if photocurrent == math.inf:  # its SNR would be inf / inf
        raise OverflowError("the optical photocurrent overflows")
    shot = 2.0 * ELECTRON_CHARGE * (photocurrent + BACKGROUND_CURRENT_A) * OPTICAL_BANDWIDTH_HZ
    thermal = 4.0 * BOLTZMANN * RECEIVER_TEMPERATURE_K * OPTICAL_BANDWIDTH_HZ / LOAD_RESISTANCE_OHM
    snr = photocurrent ** 2 / (shot + thermal)
    return 10.0 * math.log10(snr) if snr > 0.0 else SNR_FLOOR_DB


def ook_ber(snr_value_db: float) -> float:
    """On-off-keying BER = Q(sqrt(SNR)) for the optical link: 0.5 at -inf dB."""
    return _q_function(math.sqrt(10.0 ** (snr_value_db / 10.0)))


def owc_link(scenario) -> tuple[float, float]:
    """SNR in dB and bit error rate of the optical link."""
    snr = owc_snr_db(scenario, owc_channel_gain(scenario))
    return snr, ook_ber(snr)


def packet_success(ber: float, bits: int) -> float:
    """Probability a packet of `bits` independent bits arrives intact."""
    return (1.0 - ber) ** bits
