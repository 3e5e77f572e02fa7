"""Tests for the Slurm directive layer and the §5.3 binding hypotheses."""

import pytest

from repro.cluster.machine import marconi_a3, small_test_machine
from repro.cluster.placement import LoadShape
from repro.cluster.slurm import (
    SlurmDirectives,
    SlurmError,
    SocketBinding,
    layout_from_directives,
    parse_batch_script,
    parse_options,
    submit,
)
from repro.runtime.job import Job

MACHINE = marconi_a3()

PAPER_SCRIPT = """\
#!/bin/bash
#SBATCH --job-name=ime_vs_scalapack
#SBATCH --ntasks=144
#SBATCH --ntasks-per-node=24
#SBATCH --ntasks-per-socket=24
#SBATCH --distribution=block
srun ./solver input_8640.dat
"""


# -------------------------------------------------------------------- parsing
def test_parse_batch_script():
    d = parse_batch_script(PAPER_SCRIPT)
    assert d.ntasks == 144
    assert d.ntasks_per_node == 24
    assert d.ntasks_per_socket == 24
    assert d.distribution == "block"


def test_parse_short_option():
    d = parse_batch_script("#SBATCH -n 48\n")
    assert d.ntasks == 48
    assert d.ntasks_per_node is None


def test_parse_requires_ntasks():
    with pytest.raises(SlurmError, match="--ntasks is required"):
        parse_batch_script("#SBATCH --ntasks-per-node=24\n")


def test_parse_rejects_bad_values():
    with pytest.raises(SlurmError, match="integer"):
        parse_options({"--ntasks": "many"})
    with pytest.raises(SlurmError, match="positive"):
        SlurmDirectives(ntasks=0)
    with pytest.raises(SlurmError, match="distribution"):
        SlurmDirectives(ntasks=4, distribution="plane")


# -------------------------------------------------------------------- layouts
@pytest.mark.parametrize(
    "ntasks,per_node,per_socket,expected_shape,nodes",
    [
        (144, 48, 24, LoadShape.FULL, 3),
        (144, 24, 24, LoadShape.HALF_ONE_SOCKET, 6),
        (144, 24, 12, LoadShape.HALF_TWO_SOCKETS, 6),
        (1296, 48, 24, LoadShape.FULL, 27),
    ],
)
def test_layouts_reproduce_table1(ntasks, per_node, per_socket,
                                  expected_shape, nodes):
    d = SlurmDirectives(ntasks=ntasks, ntasks_per_node=per_node,
                        ntasks_per_socket=per_socket)
    layout = layout_from_directives(d, MACHINE)
    assert layout.shape == expected_shape
    assert layout.nodes == nodes


def test_layout_defaults_fill_whole_nodes():
    d = SlurmDirectives(ntasks=96)
    layout = layout_from_directives(d, MACHINE)
    assert layout.ranks_per_node == 48
    assert layout.nodes == 2
    assert layout.shape == LoadShape.FULL


def test_layout_validation():
    with pytest.raises(SlurmError, match="exceeds"):
        layout_from_directives(
            SlurmDirectives(ntasks=100, ntasks_per_node=50), MACHINE
        )
    with pytest.raises(SlurmError, match="not divisible"):
        layout_from_directives(
            SlurmDirectives(ntasks=100, ntasks_per_node=48), MACHINE
        )
    with pytest.raises(SlurmError, match="sockets"):
        layout_from_directives(
            SlurmDirectives(ntasks=96, ntasks_per_node=48,
                            ntasks_per_socket=12),
            MACHINE,
        )


# -------------------------------------------------------------------- binding
def test_strict_binding_honours_one_socket_directive():
    placement = submit(PAPER_SCRIPT, MACHINE, binding=SocketBinding.STRICT)
    assert placement.ranks_on_socket(0, 1) == []
    assert len(placement.ranks_on_socket(0, 0)) == 24


def test_leaky_binding_spreads_across_sockets():
    placement = submit(PAPER_SCRIPT, MACHINE, binding=SocketBinding.LEAKY)
    assert len(placement.ranks_on_socket(0, 0)) == 12
    assert len(placement.ranks_on_socket(0, 1)) == 12
    # The occupancy count reads the rebound map, not the layout.
    assert placement.socket_occupancies() == [(12, 12)] * placement.layout.nodes
    # Still a valid one-core-per-rank placement.
    keys = {placement.core_of(r).key for r in range(placement.n_ranks)}
    assert len(keys) == placement.n_ranks


def test_section_5_3_hypotheses_distinguishable_by_energy():
    """§5.3: the 'idle' socket consumed only 50–60 % less than the loaded
    one, which the paper attributes either to idle-floor power or to Slurm
    not honouring the directive.  The two hypotheses leave different
    energy signatures: STRICT gives a large pkg0/pkg1 asymmetry (idle
    floor only), LEAKY gives near-equal packages."""
    machine = small_test_machine(cores_per_socket=24)
    script = ("#SBATCH --ntasks=24 --ntasks-per-node=24 "
              "--ntasks-per-socket=24\n")
    energies = {}
    for binding in (SocketBinding.STRICT, SocketBinding.LEAKY):
        placement = submit(script, machine, binding=binding)
        job = Job(machine, placement)

        def program(ctx, comm):
            yield from ctx.compute(flops=12e9)

        result = job.run(program)
        pkg0 = result.node_energy_j[(0, "package-0")]
        pkg1 = result.node_energy_j[(0, "package-1")]
        energies[binding] = (pkg0, pkg1)

    strict0, strict1 = energies[SocketBinding.STRICT]
    leaky0, leaky1 = energies[SocketBinding.LEAKY]
    assert strict1 < strict0 * 0.7        # clear asymmetry
    assert leaky1 == pytest.approx(leaky0, rel=0.02)  # near-equal
    # Under STRICT the 'idle' socket still burns 40-65 % less, not ~100 %
    # less — the paper's §5.3 observation, explained by the idle floor.
    reduction = 1.0 - strict1 / strict0
    assert 0.35 <= reduction <= 0.70
