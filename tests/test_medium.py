import math

import pytest

from patrev.medium import (
    Medium,
    RawParams,
    UnphysicalMediumError,
    derive_medium,
    nondimensional_medium,
    water_params,
)


def test_water_derivation_frozen_values():
    m = derive_medium(water_params())
    # tau0 = tau1 / (1 + c_inf^2 rho kappa1) = 1e-9 / 2.125
    assert m.tau0 == pytest.approx(4.705882352941176e-10, rel=1e-14)
    assert m.tau0 == pytest.approx(0.47 * m.tau1, rel=0.02)
    assert m.c0 == pytest.approx(1028.9915108550529, rel=1e-14)
    assert m.k_c == pytest.approx(1.9436506316151002e6, rel=1e-14)
    assert m.tau_ratio == pytest.approx(2.125, rel=1e-14)


def test_medium_invariants_hold():
    m = derive_medium(water_params())
    assert 0 < m.tau0 < m.tau1
    assert m.c_inf == pytest.approx(math.sqrt(m.tau1 / m.tau0) * m.c0, rel=1e-12)
    assert m.tau0 == pytest.approx((1 - m.c0**2 * m.rho * m.kappa1) * m.tau1, rel=1e-12)
    assert m.k_c == 2.0 / (m.c0 * m.tau1)


def test_round_trip_between_speed_forms():
    m1 = derive_medium(water_params())
    raw_c0 = RawParams(tau1=m1.tau1, kappa1=m1.kappa1, rho=m1.rho,
                       speed=m1.c0, speed_kind="c_zero")
    m2 = derive_medium(raw_c0)
    for attr in ("tau1", "tau0", "c0", "c_inf", "kappa1", "rho", "k_c"):
        assert getattr(m2, attr) == pytest.approx(getattr(m1, attr), rel=1e-12)


@pytest.mark.parametrize("speed_kind", ["c_infinity", "c_zero"])
def test_kappa_zero_is_exact_identity(speed_kind):
    # no kappa1 = 0 branch: the general formulas are exact there
    raw = RawParams(tau1=1e-9, kappa1=0.0, rho=1e3, speed=1500.0,
                    speed_kind=speed_kind)
    m = derive_medium(raw)
    assert m.tau0 == m.tau1
    assert m.c0 == m.c_inf == 1500.0


def test_tau0_strictly_decreasing_in_kappa1():
    taus = []
    for kappa in [0.0, 1e-10, 2e-10, 5e-10, 1e-9]:
        raw = RawParams(tau1=1e-9, kappa1=kappa, rho=1e3, speed=1500.0,
                        speed_kind="c_infinity")
        taus.append(derive_medium(raw).tau0)
    assert all(b < a for a, b in zip(taus, taus[1:]))


def test_unphysical_c0_form_rejected():
    # c0^2 rho kappa1 = 1.125 >= 1
    raw = RawParams(tau1=1e-9, kappa1=5e-10, rho=1e3, speed=1500.0,
                    speed_kind="c_zero")
    with pytest.raises(UnphysicalMediumError):
        derive_medium(raw)


@pytest.mark.parametrize("field,value", [
    ("tau1", -1.0), ("tau1", 0.0), ("rho", 0.0), ("kappa1", -1e-12),
    ("speed", 0.0),
])
def test_raw_param_validation(field, value):
    kwargs = dict(tau1=1e-9, kappa1=5e-10, rho=1e3, speed=1500.0)
    kwargs[field] = value
    with pytest.raises(ValueError):
        RawParams(**kwargs)


def test_bad_speed_kind_rejected():
    with pytest.raises(ValueError):
        RawParams(tau1=1e-9, kappa1=0.0, rho=1e3, speed=1500.0, speed_kind="c_phase")


def test_inconsistent_medium_rejected():
    with pytest.raises(ValueError):
        Medium(tau1=1e-9, tau0=5e-10, c0=1000.0, c_inf=1000.0,
               kappa1=5e-10, rho=1e3, k_c=2.0 / (1000.0 * 1e-9))


def test_nondimensional_medium():
    m = nondimensional_medium(0.47)
    assert m.tau1 == 1.0 and m.c0 == 1.0 and m.rho == 1.0
    assert m.tau0 == pytest.approx(0.47, rel=1e-12)
    assert m.k_c == 2.0
    with pytest.raises(ValueError):
        nondimensional_medium(0.0)
    with pytest.raises(ValueError):
        nondimensional_medium(1.5)


def test_admitted_tau_ratio_is_at_least_2_to_minus_53():
    # the check tau0 = (1 - c0^2 rho kappa1) tau1 holds for either speed kind,
    # and 1 - c0^2 rho kappa1 is 0 or at least 2^-53 in doubles, so no
    # admitted medium has tau0/tau1 below that: the dispersion solver's
    # root l0 <= tau1/tau0 stays below 1e16
    ratios = []
    for kappa1 in [10.0**e for e in range(-12, 301, 4)]:
        for tau1 in (1e-9, 1e-310, 1.0):
            try:
                m = derive_medium(RawParams(tau1=tau1, kappa1=kappa1, rho=1e3,
                                            speed=1500.0))
            except ValueError:
                continue
            ratios.append(m.tau0 / m.tau1)
    for j in range(1, 40):
        for tau1 in (1.0, 1e-310, 1e-320, 1e300):
            try:
                m = derive_medium(RawParams(tau1=tau1, kappa1=1.0 - j * 2.0**-53,
                                            rho=1.0, speed=1.0, speed_kind="c_zero"))
            except ValueError:
                continue
            ratios.append(m.tau0 / m.tau1)
    assert min(ratios) == 2.0**-53
    # c_inf^2 rho kappa1 = 1e150 would give tau0/tau1 ~ 1e-150: refused
    with pytest.raises(ValueError, match="tau0 inconsistent with c0"):
        derive_medium(RawParams(tau1=1e-9, kappa1=1e150 / (1500.0**2 * 1e3), rho=1e3,
                                speed=1500.0))


def test_c_infinity_media_are_admitted_down_to_2_to_minus_53():
    # tau1/tau0 = 1 + c_inf^2 rho kappa1 is a sum of positive terms, so it
    # holds to round-off where tau0 = (1 - c0^2 rho kappa1) tau1 cancels
    # (that check refused every c_infinity medium from X = c_inf^2 rho kappa1
    # ~ 2400); on a log scan of kappa1 each medium is admitted up to
    # X = 2^53, as is its c_zero form while 1 - c0^2 rho kappa1 keeps digits
    c_inf, rho, tau1 = 1500.0, 1e3, 1e-9
    for e in range(-120, 160):
        X = 10.0 ** (e / 10.0)
        m = derive_medium(RawParams(tau1=tau1, kappa1=X / (c_inf**2 * rho), rho=rho,
                                    speed=c_inf))
        assert m.tau0 == pytest.approx(tau1 / (1.0 + X), rel=1e-15)
        if X <= 1e12:
            derive_medium(RawParams(tau1=tau1, kappa1=m.kappa1, rho=rho, speed=m.c0,
                                    speed_kind="c_zero"))
    with pytest.raises(ValueError, match="is below 2\\^-53"):
        derive_medium(RawParams(tau1=tau1, kappa1=2.0**54 / (c_inf**2 * rho), rho=rho,
                                speed=c_inf))
