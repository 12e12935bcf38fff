import math

import pytest

from qosguard.allocator import FieldError
from qosguard.vlc import (
    BAND_PLAN,
    OpticalLinkParams,
    band_widths,
    concentrator_gain,
    decode_band_mask,
    enumerate_masks,
    lambertian_order,
    los_channel_gain,
    received_power,
)

WORKED_LINK = OpticalLinkParams(
    half_power_angle=60.0,
    detector_area=1e-4,
    distance=2.0,
    irradiance_angle=0.0,
    incidence_angle=0.0,
    fov=60.0,
    filter_coeff=1.0,
    refractive_index=1.5,
)


def test_string_for_float_field_is_field_error():
    with pytest.raises(FieldError, match="^distance: must be > 0, got '2'$"):
        OpticalLinkParams(distance="2")


def _out_of_range_link():
    """The worked link with a distance of 0, which its constructor refuses."""
    params = OpticalLinkParams()
    object.__setattr__(params, "distance", 0.0)
    return params


# each argument of each public function with a wrong-type value and an
# out-of-range value: (function, arguments, the argument that is bad)
BAD_ARGUMENTS = [
    (lambertian_order, ("60",), "half_power_angle"),
    (lambertian_order, (None,), "half_power_angle"),
    (lambertian_order, (90.0,), "half_power_angle"),
    (lambertian_order, (math.nan,), "half_power_angle"),
    (concentrator_gain, ("0", 60, 1.5), "psi"),
    (concentrator_gain, (-1.0, 60, 1.5), "psi"),
    (concentrator_gain, (0.0, "60", 1.5), "fov"),
    (concentrator_gain, (0.0, 0.0, 1.5), "fov"),
    (concentrator_gain, (0.0, 60, None), "refractive_index"),
    (concentrator_gain, (0.0, 60, 0.9), "refractive_index"),
    (los_channel_gain, (None,), "params"),
    pytest.param(los_channel_gain, (_out_of_range_link(),), "params",
                 id="los_channel_gain(distance=0.0)"),
    (received_power, (None, 1.0), "transmit_power"),
    (received_power, (-1.0, 1.0), "transmit_power"),
    (received_power, (1.0, "1"), "gain"),
    (received_power, (1.0, -0.5), "gain"),
    (decode_band_mask, (1010101,), "mask"),
    (decode_band_mask, (None,), "mask"),
    (decode_band_mask, ("0000000",), "mask"),
    (decode_band_mask, ("10000x0",), "mask"),
    (decode_band_mask, ("10100",), "mask"),
]


@pytest.mark.parametrize("function,args,name", BAD_ARGUMENTS,
                         ids=lambda v: v.__name__ if callable(v) else repr(v))
def test_bad_argument_is_field_error(function, args, name):
    # a FieldError is a ValueError; a TypeError must not escape
    with pytest.raises(FieldError) as exc:
        function(*args)
    assert exc.value.name == name


class TestLambertianOrder:
    def test_sixty_degrees_is_one(self):
        assert lambertian_order(60.0) == pytest.approx(1.0, abs=1e-12)

    def test_thirty_degrees(self):
        assert lambertian_order(30.0) == pytest.approx(4.8188, abs=1e-3)

    def test_wide_angle_limit(self):
        # order decays toward zero as the half-power angle approaches 90
        assert 0 < lambertian_order(89.999) < lambertian_order(89.9) < 0.2

    def test_out_of_range(self):
        for bad in (0.0, 90.0, -5.0, 120.0):
            with pytest.raises(ValueError):
                lambertian_order(bad)


class TestConcentratorGain:
    def test_inside_fov(self):
        assert concentrator_gain(30.0, 60.0, 1.5) == pytest.approx(3.0)

    def test_outside_fov_zero(self):
        assert concentrator_gain(70.0, 60.0, 1.5) == 0.0

    def test_unit_gain(self):
        assert concentrator_gain(0.0, 90.0, 1.0) == pytest.approx(1.0)

    def test_refractive_index_below_one(self):
        with pytest.raises(ValueError):
            concentrator_gain(0.0, 60.0, 0.9)

    # a nan angle passed the field-of-view test and gave the in-view gain,
    # and a field of view of 0 divided by sin(0) = 0
    @pytest.mark.parametrize("psi,fov", [(math.nan, 60.0), (-1.0, 60.0), (91.0, 95.0),
                                         (30.0, math.nan), (0.0, 0.0), (0.0, 91.0)])
    def test_angle_outside_its_range_rejected(self, psi, fov):
        with pytest.raises(FieldError, match=r"^(psi: must be in \[0, 90\]|fov: must be in "
                                             r"\(0, 90\]), got "):
            concentrator_gain(psi, fov, 1.5)


class TestChannelGain:
    def test_worked_link(self):
        h = los_channel_gain(WORKED_LINK)
        assert h == pytest.approx(2.387e-5, rel=1e-3)
        # direct evaluation: 2 * 1e-4 / (8 pi) * 3
        assert h == pytest.approx(2e-4 / (8 * math.pi) * 3, rel=1e-12)

    def test_outside_fov_zero(self):
        params = OpticalLinkParams(60.0, 1e-4, 2.0, 0.0, 70.0, 60.0)
        assert los_channel_gain(params) == 0.0

    def test_inverse_square_law(self):
        near = los_channel_gain(WORKED_LINK)
        far = los_channel_gain(
            OpticalLinkParams(60.0, 1e-4, 4.0, 0.0, 0.0, 60.0, 1.0, 1.5)
        )
        assert far == pytest.approx(near / 4, rel=1e-12)

    def test_monotone_in_incidence_angle(self):
        gains = [
            los_channel_gain(
                OpticalLinkParams(60.0, 1e-4, 2.0, 0.0, psi, 60.0, 1.0, 1.5)
            )
            for psi in [0, 15, 30, 45, 60]
        ]
        assert all(a >= b for a, b in zip(gains, gains[1:]))


class TestReceivedPower:
    def test_worked_product(self):
        h = los_channel_gain(WORKED_LINK)
        assert received_power(1.0, h) == pytest.approx(2.387e-5, rel=1e-3)

    def test_zero_cases(self):
        assert received_power(1.0, 0.0) == 0.0
        assert received_power(0.0, 5.0) == 0.0

    def test_energy_consistency(self):
        h = los_channel_gain(WORKED_LINK)
        assert received_power(2.0, h) <= 2.0


class TestBandMasks:
    def test_table2_row(self):
        assert decode_band_mask("0100110") == {2, 5, 6}

    def test_all_bands(self):
        assert decode_band_mask("1111111") == set(range(1, 8))

    def test_single_band_endpoints(self):
        assert decode_band_mask("1000000") == {1}
        assert decode_band_mask("0000001") == {7}

    def test_zero_mask_invalid(self):
        with pytest.raises(ValueError):
            decode_band_mask("0000000")

    def test_malformed_mask(self):
        with pytest.raises(ValueError):
            decode_band_mask("10100")
        with pytest.raises(ValueError):
            decode_band_mask("10000x0")

    def test_enumerate_count_and_endpoints(self):
        masks = enumerate_masks()
        assert len(masks) == 127
        assert len(set(masks)) == 127
        assert "0000001" in masks
        assert "1111111" in masks
        assert "0000000" not in masks


class TestBandPlan:
    def test_plan_tiles_spectrum(self):
        assert sum(band_widths()) == 400
        for (_, _, hi), (_, lo, _) in zip(BAND_PLAN, BAND_PLAN[1:]):
            assert hi == lo

    def test_widths_match_plan(self):
        assert band_widths() == (70, 60, 50, 40, 50, 60, 70)
