"""Tests for the power model and activity accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.accounting import ActivityAccountant
from repro.energy.power_model import DramPower, PackagePower, PowerParams


# ---------------------------------------------------------------- power model
def test_idle_package_draws_idle_power():
    pkg = PackagePower(PowerParams())
    assert pkg.package_power(0, 0.0, 0.0) == pytest.approx(
        PowerParams().pkg_idle_w
    )


def test_package_power_increases_with_cores_and_utilization():
    pkg = PackagePower(PowerParams())
    p_low = pkg.package_power(4, 0.2, 0.1)
    p_cores = pkg.package_power(8, 0.2, 0.1)
    p_util = pkg.package_power(4, 0.9, 0.8)
    assert p_cores > p_low
    assert p_util > p_low


def test_idle_socket_is_50_to_60_percent_below_loaded_socket():
    """§5.3: the 'empty' socket consumed 50–60 % less than the loaded one."""
    params = PowerParams()
    pkg = PackagePower(params)
    loaded = pkg.package_power(24, 0.65, 0.35)
    idle = pkg.idle_power()
    reduction = 1.0 - idle / loaded
    assert 0.45 <= reduction <= 0.65


def test_full_socket_within_tdp():
    params = PowerParams()
    pkg = PackagePower(params)
    assert pkg.package_power(24, 1.0, 1.0) <= params.pkg_tdp_w


def test_utilization_bounds_enforced():
    pkg = PackagePower(PowerParams())
    with pytest.raises(ValueError):
        pkg.core_active_power(1.5, 0.0)
    with pytest.raises(ValueError):
        pkg.core_active_power(0.5, -0.1)
    with pytest.raises(ValueError):
        pkg.core_active_power(0.5, 0.5, freq_ratio=0.0)
    with pytest.raises(ValueError):
        pkg.package_power(-1, 0.5, 0.5)


def test_freq_scaling_cubes_dynamic_power():
    pkg = PackagePower(PowerParams())
    full = pkg.core_active_power(1.0, 0.0, freq_ratio=1.0)
    half = pkg.core_active_power(1.0, 0.0, freq_ratio=0.5)
    assert half == pytest.approx(full * 0.125)


def test_freq_ratio_for_cap_uncapped():
    pkg = PackagePower(PowerParams())
    assert pkg.freq_ratio_for_cap(1000.0, 24, 1.0, 1.0) == 1.0


def test_freq_ratio_for_cap_binding():
    params = PowerParams()
    pkg = PackagePower(params)
    full = pkg.package_power(24, 1.0, 0.5)
    cap = 0.7 * full
    ratio = pkg.freq_ratio_for_cap(cap, 24, 1.0, 0.5)
    assert 0.05 < ratio < 1.0
    assert pkg.package_power(24, 1.0, 0.5, freq_ratio=ratio) == pytest.approx(
        cap, rel=1e-6
    )


def test_cap_below_idle_floor_pins_minimum_frequency():
    params = PowerParams()
    pkg = PackagePower(params)
    ratio = pkg.freq_ratio_for_cap(params.pkg_idle_w * 0.5, 24, 1.0, 1.0)
    assert ratio == 0.05


def test_dram_power_model():
    params = PowerParams()
    dram = DramPower(params)
    assert dram.domain_power(0.0) == pytest.approx(params.dram_idle_w)
    rate = 10e9  # 10 GB/s
    assert dram.domain_power(rate) == pytest.approx(
        params.dram_idle_w + params.dram_energy_per_byte * rate
    )
    with pytest.raises(ValueError):
        dram.traffic_power(-1.0)


# ----------------------------------------------------------------- accounting
def test_accountant_idle_only():
    acct = ActivityAccountant(idle_power_w=10.0)
    assert acct.energy_at(5.0) == pytest.approx(50.0)


def test_accountant_completed_interval():
    acct = ActivityAccountant(idle_power_w=10.0)
    h = acct.begin(watts=100.0, t=1.0)
    acct.end(h, t=3.0)
    assert acct.energy_at(4.0) == pytest.approx(10.0 * 4.0 + 100.0 * 2.0)


def test_accountant_ongoing_interval_partial_integration():
    acct = ActivityAccountant(idle_power_w=0.0)
    acct.begin(watts=50.0, t=2.0)
    assert acct.energy_at(2.0) == pytest.approx(0.0)
    assert acct.energy_at(4.0) == pytest.approx(100.0)


def test_accountant_overlapping_intervals():
    acct = ActivityAccountant(idle_power_w=1.0)
    h1 = acct.begin(watts=10.0, t=0.0)
    h2 = acct.begin(watts=20.0, t=1.0)
    acct.end(h1, t=2.0)
    acct.end(h2, t=3.0)
    # idle 1W*4s + 10W*2s + 20W*2s
    assert acct.energy_at(4.0) == pytest.approx(4.0 + 20.0 + 40.0)


def test_accountant_burst_energy():
    acct = ActivityAccountant(idle_power_w=0.0)
    acct.add_energy(42.0)
    assert acct.energy_at(0.0) == pytest.approx(42.0)
    with pytest.raises(ValueError):
        acct.add_energy(-1.0)


def test_accountant_misuse_errors():
    acct = ActivityAccountant(idle_power_w=0.0)
    h = acct.begin(watts=10.0, t=0.0)
    acct.end(h, t=1.0)
    with pytest.raises(KeyError):
        acct.end(h, t=2.0)
    with pytest.raises(ValueError):
        acct.begin(watts=-5.0, t=0.0)
    h2 = acct.begin(watts=5.0, t=3.0)
    with pytest.raises(ValueError):
        acct.end(h2, t=2.0)
    with pytest.raises(ValueError):
        ActivityAccountant(idle_power_w=-1.0)


def test_accountant_boot_time_offset():
    acct = ActivityAccountant(idle_power_w=10.0, t_boot=100.0)
    assert acct.energy_at(110.0) == pytest.approx(100.0)
    with pytest.raises(ValueError):
        acct.energy_at(99.0)


def test_accountant_rejects_times_before_boot_everywhere():
    acct = ActivityAccountant(idle_power_w=1.0, t_boot=5.0)
    with pytest.raises(ValueError, match="precedes boot time 5.0"):
        acct.begin(watts=1.0, t=4.0)
    h = acct.begin(watts=1.0, t=6.0)
    with pytest.raises(ValueError, match="precedes boot time 5.0"):
        acct.end(h, t=4.5)
    with pytest.raises(ValueError, match="precedes boot time 5.0"):
        acct.energy_at(0.0)


@settings(max_examples=50, deadline=None)
@given(
    intervals=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0),   # start
            st.floats(min_value=0.01, max_value=50.0),   # duration
            st.floats(min_value=0.0, max_value=200.0),   # watts
        ),
        min_size=0,
        max_size=10,
    ),
    idle=st.floats(min_value=0.0, max_value=50.0),
)
def test_property_energy_is_sum_of_interval_integrals(intervals, idle):
    acct = ActivityAccountant(idle_power_w=idle)
    expected_active = 0.0
    t_end = 200.0
    # Open/close in increasing start order to respect time monotonicity.
    for start, duration, watts in sorted(intervals):
        h = acct.begin(watts=watts, t=start)
        acct.end(h, t=start + duration)
        expected_active += watts * duration
    assert acct.energy_at(t_end) == pytest.approx(
        idle * t_end + expected_active, rel=1e-9, abs=1e-9
    )


@settings(max_examples=50, deadline=None)
@given(
    t1=st.floats(min_value=0.0, max_value=100.0),
    t2=st.floats(min_value=0.0, max_value=100.0),
)
def test_property_energy_is_monotone_in_time(t1, t2):
    acct = ActivityAccountant(idle_power_w=3.0)
    h = acct.begin(watts=7.0, t=0.0)
    lo, hi = sorted((t1, t2))
    e_hi = acct.energy_at(hi)
    e_lo = acct.energy_at(lo)
    assert e_hi >= e_lo
