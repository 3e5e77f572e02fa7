"""Tests for the power-limit MSR bitfields and the sysfs powercap tree."""

import pytest

from repro.energy.msr import (
    MSR_PKG_POWER_LIMIT,
    MSR_RAPL_POWER_UNIT,
    MsrAccessError,
    SKYLAKE_ESU,
    SKYLAKE_PSU,
    SKYLAKE_TSU,
    decode_power_limit,
    encode_power_limit,
)
from repro.energy.power_model import PowerParams
from repro.energy.powercapfs import PowercapFS, PowercapFSError
from repro.energy.rapl import RaplNode


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


def make_node(clock=None, **overrides):
    params = PowerParams().with_overrides(**overrides)
    return RaplNode(node_id=0, n_sockets=2, params=params,
                    clock=clock or FakeClock())


# -------------------------------------------------------------- MSR bitfields
def test_power_unit_register_fields():
    node = make_node()
    raw = node.msr.read_msr(MSR_RAPL_POWER_UNIT)
    assert raw & 0xF == SKYLAKE_PSU
    assert (raw >> 8) & 0x1F == SKYLAKE_ESU
    assert (raw >> 16) & 0xF == SKYLAKE_TSU
    assert node.msr.energy_unit_j == pytest.approx(2.0 ** -SKYLAKE_ESU)


@pytest.mark.parametrize("watts", [0.125, 1.0, 95.0, 150.0, 4095.875])
def test_power_limit_encode_decode_roundtrip(watts):
    raw = encode_power_limit(watts)
    decoded, enabled = decode_power_limit(raw)
    assert enabled
    assert decoded == pytest.approx(watts, abs=0.0626)


def test_power_limit_encode_validation():
    with pytest.raises(ValueError, match="negative"):
        encode_power_limit(-1.0)
    with pytest.raises(ValueError, match="overflows"):
        encode_power_limit(5000.0)
    _, enabled = decode_power_limit(encode_power_limit(50.0, enabled=False))
    assert not enabled


def test_msr_write_applies_power_cap_to_package():
    node = make_node()
    assert node.package(0).power_cap_w == PowerParams().pkg_tdp_w
    node.msr.write_msr(MSR_PKG_POWER_LIMIT, encode_power_limit(90.0),
                       package=0)
    assert node.package(0).power_cap_w == pytest.approx(90.0, abs=0.13)
    assert node.package(1).power_cap_w == PowerParams().pkg_tdp_w
    # Read-back returns the raw value written.
    raw = node.msr.read_msr(MSR_PKG_POWER_LIMIT, package=0)
    assert decode_power_limit(raw)[0] == pytest.approx(90.0, abs=0.13)


def test_msr_write_disabled_limit_restores_tdp():
    node = make_node()
    node.msr.write_msr(MSR_PKG_POWER_LIMIT, encode_power_limit(80.0),
                       package=1)
    assert node.package(1).power_cap_w == pytest.approx(80.0, abs=0.13)
    node.msr.write_msr(MSR_PKG_POWER_LIMIT,
                       encode_power_limit(80.0, enabled=False), package=1)
    assert node.package(1).power_cap_w == PowerParams().pkg_tdp_w


def test_msr_write_validation():
    node = make_node()
    with pytest.raises(MsrAccessError, match="read-only"):
        node.msr.write_msr(0x611, 1)
    with pytest.raises(MsrAccessError, match="out of range"):
        node.msr.write_msr(MSR_PKG_POWER_LIMIT, 0, package=9)


# --------------------------------------------------------------- powercap fs
def test_powercapfs_tree_structure():
    fs = PowercapFS(make_node())
    assert fs.list_zones() == [
        "intel-rapl:0", "intel-rapl:0:0",
        "intel-rapl:1", "intel-rapl:1:0",
    ]
    assert "constraint_0_power_limit_uw" in fs.list_files("intel-rapl:0")
    assert "constraint_0_power_limit_uw" not in fs.list_files("intel-rapl:0:0")
    with pytest.raises(PowercapFSError):
        fs.list_files("intel-rapl:7")


def test_powercapfs_names():
    fs = PowercapFS(make_node())
    assert fs.read("intel-rapl:0/name") == "package-0"
    assert fs.read("intel-rapl:1/name") == "package-1"
    assert fs.read("intel-rapl:0:0/name") == "dram"


def test_powercapfs_energy_uj_tracks_time():
    clock = FakeClock()
    node = make_node(clock, pkg_idle_w=40.0)
    fs = PowercapFS(node)
    clock.t = 10.0
    uj = int(fs.read("intel-rapl:0/energy_uj"))
    assert uj == pytest.approx(400e6, rel=0.01)   # 40 W × 10 s
    dram_uj = int(fs.read("intel-rapl:0:0/energy_uj"))
    assert dram_uj < uj
    assert int(fs.read("intel-rapl:0/max_energy_range_uj")) > 0


def test_powercapfs_write_power_limit():
    node = make_node()
    fs = PowercapFS(node)
    fs.write("intel-rapl:0/constraint_0_power_limit_uw", "95000000")
    assert node.package(0).power_cap_w == pytest.approx(95.0, abs=0.13)
    assert int(fs.read("intel-rapl:0/constraint_0_power_limit_uw")) \
        == pytest.approx(95e6, rel=0.01)


def test_powercapfs_write_validation():
    fs = PowercapFS(make_node())
    with pytest.raises(PowercapFSError, match="permission"):
        fs.write("intel-rapl:0/energy_uj", "0")
    with pytest.raises(PowercapFSError, match="permission"):
        fs.write("intel-rapl:0:0/constraint_0_power_limit_uw", "1000")
    with pytest.raises(PowercapFSError, match="invalid value"):
        fs.write("intel-rapl:0/constraint_0_power_limit_uw", "lots")
    with pytest.raises(PowercapFSError, match="invalid limit"):
        fs.write("intel-rapl:0/constraint_0_power_limit_uw", "-5")
    with pytest.raises(PowercapFSError, match="no such"):
        fs.read("intel-rapl:0/bogus")
    with pytest.raises(PowercapFSError, match="no such"):
        fs.read("intel-rapl:0:3/energy_uj")


def test_powercapfs_cap_affects_simulated_execution():
    """Capping through sysfs must slow a capped compute segment, like a
    sysadmin's `echo ... > constraint_0_power_limit_uw` would."""
    from repro.cluster.machine import small_test_machine
    from repro.cluster.placement import LoadShape, place_ranks
    from repro.runtime.job import Job
    from repro.perfmodel.calibration import ComputeProfile

    machine = small_test_machine(cores_per_socket=24)
    placement = place_ranks(48, LoadShape.FULL, machine)
    prof = ComputeProfile(flop_util=1.0, mem_util=1.0)

    def program(ctx, comm):
        yield from ctx.compute(flops=24e9)

    plain = Job(machine, placement, profile=prof).run(program)
    capped_job = Job(machine, placement, profile=prof)
    for node in capped_job.rapl_nodes:
        fs = PowercapFS(node)
        for p in range(node.n_sockets):
            fs.write(f"intel-rapl:{p}/constraint_0_power_limit_uw",
                     "80000000")
    capped = capped_job.run(program)
    assert capped.duration > plain.duration
