"""Tests for the simulated MSR device, RAPL node, and PAPI layer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.domains import RaplDomain
from repro.energy.msr import (
    MSR_DRAM_ENERGY_STATUS,
    MSR_PKG_ENERGY_STATUS,
    MSR_RAPL_POWER_UNIT,
    MsrAccessError,
    MsrDevice,
    SKYLAKE_ESU,
)
from repro.energy.papi import (
    PAPI_VER_CURRENT,
    EventSet,
    PapiError,
    PapiLibrary,
    powercap_event_names,
)
from repro.energy.power_model import PowerParams
from repro.energy.rapl import RaplNode


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


def make_node(clock, **power_overrides):
    params = PowerParams().with_overrides(**power_overrides)
    return RaplNode(node_id=0, n_sockets=2, params=params, clock=clock)


# ------------------------------------------------------------------- MSR
def test_msr_power_unit_register():
    clock = FakeClock()
    node = make_node(clock)
    raw = node.msr.read_msr(MSR_RAPL_POWER_UNIT)
    assert (raw >> 8) & 0x1F == SKYLAKE_ESU  # energy status unit field
    assert node.msr.energy_unit_j == pytest.approx(2.0 ** -SKYLAKE_ESU)


def test_msr_requires_cpu_detection():
    clock = FakeClock()
    node = make_node(clock)
    with pytest.raises(MsrAccessError, match="detection"):
        node.msr.read_msr(MSR_PKG_ENERGY_STATUS, package=0)
    family, model = node.msr.detect_cpu()
    assert (family, model) == (6, 85)  # Skylake-SP
    node.msr.read_msr(MSR_PKG_ENERGY_STATUS, package=0)  # now fine


def test_msr_counter_tracks_idle_energy():
    clock = FakeClock()
    node = make_node(clock, pkg_idle_w=40.0)
    node.msr.detect_cpu()
    clock.t = 10.0
    raw = node.msr.read_msr(MSR_PKG_ENERGY_STATUS, package=0)
    joules = raw * node.msr.energy_unit_j
    # 40 W for 10 s = 400 J, modulo the ≤1 ms update quantum.
    assert joules == pytest.approx(400.0, rel=0.01)


def test_msr_update_quantum_quantizes_reads():
    clock = FakeClock()
    node = make_node(clock, pkg_idle_w=50.0)
    node.msr.detect_cpu()
    clock.t = 1.0
    r1 = node.msr.read_msr(MSR_PKG_ENERGY_STATUS, package=0)
    clock.t = 1.0 + 1e-5  # far below the 1 ms quantum
    r2 = node.msr.read_msr(MSR_PKG_ENERGY_STATUS, package=0)
    assert r1 == r2  # no update tick in between


def test_msr_counter_wraps_at_32_bits():
    clock = FakeClock()
    node = make_node(clock, pkg_idle_w=100.0)
    node.msr.detect_cpu()
    unit = node.msr.energy_unit_j
    wrap_joules = (1 << 32) * unit  # ≈ 262 kJ
    clock.t = wrap_joules / 100.0 + 1.0  # past one wrap at 100 W
    raw = node.msr.read_msr(MSR_PKG_ENERGY_STATUS, package=0)
    assert 0 <= raw < (1 << 32)
    assert raw * unit < wrap_joules  # wrapped


def test_msr_bad_package_and_register():
    clock = FakeClock()
    node = make_node(clock)
    node.msr.detect_cpu()
    with pytest.raises(MsrAccessError, match="out of range"):
        node.msr.read_msr(MSR_PKG_ENERGY_STATUS, package=5)
    with pytest.raises(MsrAccessError, match="unsupported"):
        node.msr.read_msr(0x123)


def test_dram_counter_separate_from_pkg():
    clock = FakeClock()
    node = make_node(clock, pkg_idle_w=40.0, dram_idle_w=4.0)
    node.msr.detect_cpu()
    clock.t = 100.0
    pkg = node.msr.read_msr(MSR_PKG_ENERGY_STATUS, package=0)
    dram = node.msr.read_msr(MSR_DRAM_ENERGY_STATUS, package=0)
    unit = node.msr.energy_unit_j
    assert pkg * unit == pytest.approx(4000.0, rel=0.01)
    assert dram * unit == pytest.approx(400.0, rel=0.01)


# ------------------------------------------------------------------- RAPL
def test_rapl_domain_names():
    assert RaplDomain.ALL == ("package-0", "package-1", "dram-0", "dram-1")
    assert RaplDomain.parse("package-1") == ("package", 1)
    assert RaplDomain.parse("dram-0") == ("dram", 0)
    with pytest.raises(ValueError):
        RaplDomain.parse("gpu-0")


def test_rapl_activity_charging_changes_package_energy():
    clock = FakeClock()
    node = make_node(clock, pkg_idle_w=10.0)
    pkg = node.package(0)
    handle, ratio = pkg.begin_core_activity(flop_util=1.0, mem_util=0.0, t=0.0)
    assert ratio == 1.0
    pkg.end_core_activity(handle, t=2.0)
    e_active = node.exact_domain_energy_j("package-0", 2.0)
    e_idle_only = node.exact_domain_energy_j("package-1", 2.0)
    assert e_active > e_idle_only


def test_rapl_dram_traffic_charging():
    clock = FakeClock()
    node = make_node(clock, dram_idle_w=0.0, dram_energy_per_byte=1e-9)
    pkg = node.package(0)
    pkg.charge_dram_traffic(nbytes=1e9, t0=0.0, t1=1.0)
    assert node.exact_domain_energy_j("dram-0", 1.0) == pytest.approx(1.0)


def test_rapl_power_cap_slows_frequency():
    clock = FakeClock()
    node = make_node(clock)
    pkg = node.package(0)
    # Saturate the package, then cap it.
    handles = [pkg.begin_core_activity(1.0, 0.5, t=0.0)[0] for _ in range(23)]
    full_power = pkg.power.package_power(24, 1.0, 0.5)
    pkg.set_power_cap(0.6 * full_power)
    _, ratio = pkg.begin_core_activity(1.0, 0.5, t=0.0)
    assert ratio < 1.0
    for h in handles:
        pkg.end_core_activity(h, t=1.0)


def test_rapl_set_cap_all_sockets():
    node = make_node(FakeClock())
    node.set_power_cap(80.0)
    assert all(p.power_cap_w == 80.0 for p in node.packages)
    node.set_power_cap(90.0, socket_id=1)
    assert node.package(0).power_cap_w == 80.0
    assert node.package(1).power_cap_w == 90.0
    with pytest.raises(ValueError):
        node.set_power_cap(-5.0)


# ------------------------------------------------------------------- PAPI
def test_papi_event_names_paper_order():
    names = powercap_event_names(2)
    assert names == [
        "powercap:::ENERGY_UJ:ZONE0",
        "powercap:::ENERGY_UJ:ZONE1",
        "powercap:::ENERGY_UJ:ZONE0_SUBZONE0",
        "powercap:::ENERGY_UJ:ZONE1_SUBZONE0",
    ]


def make_papi(clock, **power_overrides):
    node = make_node(clock, **power_overrides)
    papi = PapiLibrary(node, clock)
    return node, papi


def test_papi_init_sequence_enforced():
    clock = FakeClock()
    _, papi = make_papi(clock)
    with pytest.raises(PapiError, match="library_init"):
        papi.thread_init()
    assert papi.library_init() == PAPI_VER_CURRENT
    with pytest.raises(PapiError, match="not initialized"):
        papi.create_eventset()
    papi.thread_init()
    es = papi.create_eventset()
    assert isinstance(es, EventSet)


def test_papi_version_mismatch():
    _, papi = make_papi(FakeClock())
    with pytest.raises(PapiError, match="version"):
        papi.library_init(version=(6, 0, 0))


def test_papi_event_translation():
    _, papi = make_papi(FakeClock())
    papi.library_init()
    code = papi.event_name_to_code("powercap:::ENERGY_UJ:ZONE0")
    assert code >= 0x40000000
    with pytest.raises(PapiError, match="unknown event"):
        papi.event_name_to_code("powercap:::BOGUS")
    with pytest.raises(PapiError, match="not present"):
        papi.event_name_to_code("powercap:::ENERGY_UJ:ZONE7")


def test_papi_start_read_stop_measures_energy():
    clock = FakeClock()
    node, papi = make_papi(clock, pkg_idle_w=20.0, dram_idle_w=2.0)
    papi.library_init()
    papi.thread_init()
    es = papi.create_eventset()
    papi.add_named_events(es, powercap_event_names(2))
    clock.t = 1.0
    t0 = papi.start(es)
    assert t0 == 1.0
    clock.t = 11.0
    values, t1 = papi.stop(es)
    assert t1 == 11.0
    uj = dict(zip(es.event_names(), values))
    # 20 W × 10 s = 200 J = 2e8 µJ per package; 2 W → 2e7 µJ per dram.
    assert uj["powercap:::ENERGY_UJ:ZONE0"] == pytest.approx(2e8, rel=0.02)
    assert uj["powercap:::ENERGY_UJ:ZONE1"] == pytest.approx(2e8, rel=0.02)
    assert uj["powercap:::ENERGY_UJ:ZONE0_SUBZONE0"] == pytest.approx(2e7, rel=0.02)


def test_papi_wraparound_corrected_across_reads():
    clock = FakeClock()
    node, papi = make_papi(clock, pkg_idle_w=100.0)
    papi.library_init()
    papi.thread_init()
    es = papi.create_eventset()
    papi.add_named_events(es, ["powercap:::ENERGY_UJ:ZONE0"])
    papi.start(es)
    unit = node.msr.energy_unit_j
    wrap_seconds = (1 << 32) * unit / 100.0  # one full wrap at 100 W
    total = 0.0
    # Read every ~40 % of the wrap period, crossing several wraps.
    for i in range(1, 9):
        clock.t = i * 0.4 * wrap_seconds
        values = papi.read(es)
    expected_uj = 100.0 * clock.t * 1e6
    assert values[0] == pytest.approx(expected_uj, rel=0.01)
    assert clock.t > 2 * wrap_seconds  # we really did wrap multiple times


def test_papi_misuse_errors():
    clock = FakeClock()
    _, papi = make_papi(clock)
    papi.library_init()
    papi.thread_init()
    es = papi.create_eventset()
    with pytest.raises(PapiError, match="empty"):
        papi.start(es)
    papi.add_named_events(es, ["powercap:::ENERGY_UJ:ZONE0"])
    with pytest.raises(PapiError, match="not running"):
        papi.read(es)
    papi.start(es)
    with pytest.raises(PapiError, match="already running"):
        papi.start(es)
    with pytest.raises(PapiError, match="running"):
        papi.add_event(es, papi.event_name_to_code("powercap:::ENERGY_UJ:ZONE1"))
    with pytest.raises(PapiError, match="stop"):
        papi.cleanup_eventset(es)
    papi.stop(es)
    assert papi.destroy_eventset(es) == 0
    assert es.events == []


@settings(max_examples=20, deadline=None)
@given(duration=st.floats(min_value=0.01, max_value=1000.0),
       idle_w=st.floats(min_value=1.0, max_value=200.0))
def test_property_papi_matches_ground_truth_within_quantum(duration, idle_w):
    clock = FakeClock()
    node, papi = make_papi(clock, pkg_idle_w=idle_w)
    papi.library_init()
    papi.thread_init()
    es = papi.create_eventset()
    papi.add_named_events(es, ["powercap:::ENERGY_UJ:ZONE0"])
    papi.start(es)
    clock.t = duration
    values, _ = papi.stop(es)
    truth_uj = node.exact_domain_energy_j("package-0", duration) * 1e6
    # Counter quantization error bounded by one update quantum of power
    # plus one LSB.
    max_err = idle_w * node.msr.update_quantum * 1e6 + node.msr.energy_unit_j * 1e6
    assert abs(values[0] - truth_uj) <= max_err * 1.01
