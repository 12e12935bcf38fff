"""Line-of-sight optical channel gain and the 7-band visible-light channel plan.

Channels in the admission model are fungible integers; this module supplies
the physical-layer decoration: the Lambertian LOS link budget and the 7-bit
color-band masks that name concrete channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .allocator import checked, field_errors

# (band index, low nm, high nm); the bands tile 380..780, and each band's
# high edge is the next band's low edge
BAND_PLAN = (
    (1, 380, 450),
    (2, 450, 510),
    (3, 510, 560),
    (4, 560, 600),
    (5, 600, 650),
    (6, 650, 710),
    (7, 710, 780),
)

NUM_BANDS = 7


_POSITIVE = dict(check=lambda v: v > 0, rule="must be > 0")
_ANGLE = dict(check=lambda v: 0 <= v <= 90, rule="must be in [0, 90]")


@dataclass(frozen=True)
class OpticalLinkParams:
    """One line-of-sight link; the field names are the keys of the [vlc]
    config section, and the defaults are the worked 2 m link."""

    # transmitter half-power angle, degrees
    half_power_angle: float = checked(60.0, check=lambda v: 0 < v < 90,
                                      rule="must be in (0, 90)")
    detector_area: float = checked(1e-4, **_POSITIVE)    # photo-detector area, m^2
    distance: float = checked(2.0, **_POSITIVE)          # transmitter-receiver distance, m
    irradiance_angle: float = checked(0.0, **_ANGLE)    # degrees
    incidence_angle: float = checked(0.0, **_ANGLE)     # degrees
    # receiver field of view, degrees; the gain is n^2 / sin^2(fov)
    fov: float = checked(60.0, check=lambda v: 0 < v <= 90, rule="must be in (0, 90]")
    filter_coeff: float = checked(1.0, check=lambda v: 0 <= v <= 1, rule="must be in [0, 1]")
    refractive_index: float = checked(1.5, check=lambda v: v >= 1, rule="must be >= 1")
    # transmitted optical power
    transmit_power: float = checked(1.0, check=lambda v: v >= 0, rule="must be >= 0")

    def __post_init__(self):
        if errors := field_errors(self):
            raise errors[0]


def lambertian_order(half_power_angle: float) -> float:
    """Lambertian emission order from the half-power angle in degrees."""
    if not 0 < half_power_angle < 90:
        raise ValueError(f"half-power angle must be in (0, 90), got {half_power_angle}")
    return -math.log(2) / math.log(math.cos(math.radians(half_power_angle)))


def concentrator_gain(psi: float, fov: float, refractive_index: float) -> float:
    """Optical concentrator gain; zero outside the field of view. Angles in
    degrees: ``psi`` in [0, 90] and ``fov`` in (0, 90]."""
    if refractive_index < 1:
        raise ValueError(f"refractive index must be >= 1, got {refractive_index}")
    if not (0 <= psi <= 90 and 0 < fov <= 90):
        raise ValueError(f"angles must be psi in [0, 90] and fov in (0, 90], got {psi}, {fov}")
    if psi > fov:
        return 0.0
    return refractive_index**2 / math.sin(math.radians(fov)) ** 2


def los_channel_gain(params: OpticalLinkParams) -> float:
    """DC channel gain of the line-of-sight link; zero outside the FOV."""
    tau = lambertian_order(params.half_power_angle)
    g = concentrator_gain(params.incidence_angle, params.fov, params.refractive_index)
    return (
        (tau + 1)
        * params.detector_area
        / (2 * math.pi * params.distance**2)
        * math.cos(math.radians(params.irradiance_angle)) ** tau
        * params.filter_coeff
        * g
        * math.cos(math.radians(params.incidence_angle))
    )


def received_power(transmit_power: float, gain: float) -> float:
    """Received optical power = gain * transmitted power."""
    if transmit_power < 0:
        raise ValueError(f"transmit power must be >= 0, got {transmit_power}")
    if gain < 0:
        raise ValueError(f"gain must be >= 0, got {gain}")
    return gain * transmit_power


def decode_band_mask(mask: str) -> set[int]:
    """Band indices selected by a 7-bit mask; band 1 is the leftmost bit."""
    if len(mask) != NUM_BANDS or any(c not in "01" for c in mask):
        raise ValueError(f"band mask must be 7 bits of 0/1, got {mask!r}")
    if mask == "0000000":
        raise ValueError("band mask 0000000 is not a valid channel")
    return {i + 1 for i, c in enumerate(mask) if c == "1"}


def enumerate_masks() -> list[str]:
    """All 127 valid band masks, ascending as binary numbers."""
    return [format(v, "07b") for v in range(1, 2**NUM_BANDS)]


def band_widths() -> tuple[int, ...]:
    return tuple(high - low for _, low, high in BAND_PLAN)
