"""Physical-layer link models: radio path loss with GFSK error rates and a
line-of-sight Lambertian optical channel.

Everything here is a pure function over value types; nothing mutates shared
state, so these are safe to call from any thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SPEED_OF_LIGHT = 299792458.0
BOLTZMANN = 1.380649e-23
ELECTRON_CHARGE = 1.602176634e-19
THERMAL_NOISE_DBM_HZ = -174.0

# Effective distance of the coherent GFSK approximation at BT=0.5 and
# modulation index 0.5: BER = Q(sqrt(2 * gamma_b * GFSK_EFFECTIVE_DISTANCE)).
# This constant is the wire contract pinned by data/gfsk_ber_reference.csv.
GFSK_EFFECTIVE_DISTANCE = 0.68

# The 2 Mbit/s PHY halves energy per bit at fixed power: +3 dB required SNR.
PHY_RATE_SNR_SHIFT_DB = {"1M": 0.0, "2M": 3.0}

SNR_FLOOR_DB = -math.inf


@dataclass(frozen=True)
class Pose:
    """Position plus the unit normal the device faces."""

    position: tuple[float, float, float]
    facing: tuple[float, float, float] = (0.0, 0.0, 1.0)

    def __post_init__(self):
        n = math.sqrt(sum(c * c for c in self.facing))
        if abs(n - 1.0) > 1e-9:
            raise ValueError(f"facing vector must be unit norm, got |v|={n}")


def distance(a: Pose, b: Pose) -> float:
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a.position, b.position)))


def _angle_from_normal(origin: Pose, other: Pose) -> float:
    """Angle (radians) between origin's facing vector and the line to other."""
    d = distance(origin, other)
    if d == 0.0:
        raise ValueError("zero distance between poses")
    los = tuple((o - s) / d for s, o in zip(origin.position, other.position))
    dot = sum(f * l for f, l in zip(origin.facing, los))
    return math.acos(max(-1.0, min(1.0, dot)))


@dataclass(frozen=True)
class RadioLinkConfig:
    tx_power_dbm: float = 0.0
    frequency_hz: float = 2.4e9
    tx_gain_dbi: float = 0.0
    rx_gain_dbi: float = 0.0
    noise_figure_db: float = 7.0
    bandwidth_hz: float = 1e6
    phy_rate: str = "2M"  # one of {"1M", "2M"}

    def __post_init__(self):
        if self.phy_rate not in ("1M", "2M"):
            raise ValueError(f"phy_rate must be 1M or 2M, got {self.phy_rate}")
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth must be positive")

    @property
    def bit_rate(self) -> float:
        return 1e6 if self.phy_rate == "1M" else 2e6


@dataclass(frozen=True)
class OpticalLinkConfig:
    tx_optical_power_w: float = 0.5
    led_semi_angle_deg: float = 60.0
    pd_area_m2: float = 1e-4
    pd_fov_deg: float = 60.0
    responsivity_a_w: float = 0.54
    optical_filter_gain: float = 1.0
    concentrator_gain: float = 3.0
    background_current_a: float = 100e-6
    load_resistance_ohm: float = 10e3
    temperature_k: float = 298.0
    bandwidth_hz: float = 1e6
    bit_rate: float = 1e6

    def __post_init__(self):
        if not 0.0 < self.led_semi_angle_deg < 90.0:
            raise ValueError("LED semi-angle must be in (0, 90) degrees")
        if not 0.0 < self.pd_fov_deg <= 90.0:
            raise ValueError("photodetector FOV must be in (0, 90] degrees")

    @property
    def lambertian_order(self) -> float:
        return -math.log(2.0) / math.log(math.cos(math.radians(self.led_semi_angle_deg)))


def friis_rx_power(cfg: RadioLinkConfig, tx: Pose, rx: Pose) -> float:
    """Received power in dBm under free-space (Friis) propagation."""
    d = distance(tx, rx)
    if d <= 0.0:
        raise ValueError("Friis model is singular at zero distance")
    fspl_db = 20.0 * math.log10(4.0 * math.pi * d * cfg.frequency_hz / SPEED_OF_LIGHT)
    return cfg.tx_power_dbm + cfg.tx_gain_dbi + cfg.rx_gain_dbi - fspl_db


def snr_db(rx_dbm: float, noise_figure_db: float, bandwidth_hz: float) -> float:
    """Channel SNR against the thermal floor (-174 dBm/Hz) plus noise figure."""
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
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
    if snr_value_db == -math.inf:
        return 0.5
    shifted = snr_value_db - PHY_RATE_SNR_SHIFT_DB[phy_rate]
    gamma_b = 10.0 ** (shifted / 10.0)
    return _q_function(math.sqrt(2.0 * gamma_b * GFSK_EFFECTIVE_DISTANCE))


def owc_channel_gain(cfg: OpticalLinkConfig, tx: Pose, rx: Pose) -> float:
    """Line-of-sight Lambertian channel gain (dimensionless).

    H = (m+1) A / (2 pi d^2) * cos^m(phi) * T_f * g * cos(psi) for incidence
    angles within the photodetector field of view, zero outside it.
    """
    d = distance(tx, rx)
    if d <= 0.0:
        raise ValueError("optical channel is singular at zero distance")
    phi = _angle_from_normal(tx, rx)  # emission angle at the LED
    psi = _angle_from_normal(rx, tx)  # incidence angle at the photodetector
    if psi > math.radians(cfg.pd_fov_deg):
        return 0.0
    if phi >= math.pi / 2.0:
        return 0.0
    m = cfg.lambertian_order
    return ((m + 1.0) * cfg.pd_area_m2 / (2.0 * math.pi * d * d)
            * math.cos(phi) ** m
            * cfg.optical_filter_gain * cfg.concentrator_gain
            * math.cos(psi))


def owc_snr_db(cfg: OpticalLinkConfig, gain: float) -> float:
    """Electrical SNR of the optical link, -inf sentinel for zero gain.

    Signal power is the squared photocurrent; noise is shot (signal plus
    background light) plus thermal noise of the receiver load.
    """
    if gain < 0:
        raise ValueError("channel gain cannot be negative")
    if gain == 0.0:
        return SNR_FLOOR_DB
    photocurrent = cfg.responsivity_a_w * cfg.tx_optical_power_w * gain
    shot = 2.0 * ELECTRON_CHARGE * (photocurrent + cfg.background_current_a) * cfg.bandwidth_hz
    thermal = 4.0 * BOLTZMANN * cfg.temperature_k * cfg.bandwidth_hz / cfg.load_resistance_ohm
    snr = photocurrent ** 2 / (shot + thermal)
    return 10.0 * math.log10(snr)


def ook_ber(snr_value_db: float) -> float:
    """On-off-keying BER = Q(sqrt(SNR)) for the optical link."""
    if snr_value_db == -math.inf:
        return 0.5
    return _q_function(math.sqrt(10.0 ** (snr_value_db / 10.0)))


def packet_success(ber: float, bits: int) -> float:
    """Probability a packet of `bits` independent bits arrives intact."""
    if not 0.0 <= ber <= 0.5:
        raise ValueError(f"ber must be in [0, 0.5], got {ber}")
    if bits < 0:
        raise ValueError("bit count cannot be negative")
    return (1.0 - ber) ** bits
