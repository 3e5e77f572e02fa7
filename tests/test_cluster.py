"""Tests for the cluster substrate: topology, machine presets, placement."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.machine import marconi_a3, small_test_machine
from repro.cluster.network import ClusterFabric
from repro.cluster.placement import (
    TABLE1_RANKS,
    Layout,
    LoadShape,
    Placement,
    layout_for,
    place_ranks,
    table1_layouts,
)
from repro.cluster.topology import Cluster


# ------------------------------------------------------------------ topology
def test_cluster_structure():
    cluster = Cluster(n_nodes=3, sockets_per_node=2, cores_per_socket=24)
    assert cluster.n_nodes == 3
    assert cluster.cores_per_node == 48
    assert cluster.total_cores == 144
    node = cluster.node(1)
    assert node.node_id == 1
    assert node.n_sockets == 2
    assert node.n_cores == 48
    assert len(node.all_cores()) == 48
    core = node.sockets[1].cores[5]
    assert core.key == (1, 1, 5)


def test_cluster_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        Cluster(n_nodes=0, sockets_per_node=2, cores_per_socket=24)
    with pytest.raises(ValueError):
        Cluster(n_nodes=1, sockets_per_node=-1, cores_per_socket=24)


# ------------------------------------------------------------------- machine
def test_marconi_a3_matches_paper_description():
    spec = marconi_a3()
    assert spec.sockets_per_node == 2
    assert spec.cores_per_socket == 24
    assert spec.cores_per_node == 48
    assert spec.core_freq_hz == pytest.approx(2.1e9)
    assert spec.dram_gb_per_node == 192.0
    assert spec.node_peak_flops == pytest.approx(3.2e12)


def test_machine_builds_cluster():
    spec = marconi_a3()
    cluster = spec.build_cluster(27)
    assert cluster.n_nodes == 27
    assert cluster.total_cores == 27 * 48


def test_power_overrides_do_not_mutate_preset():
    spec = marconi_a3()
    tuned = spec.with_power(pkg_idle_w=60.0)
    assert tuned.power.pkg_idle_w == 60.0
    assert spec.power.pkg_idle_w == 45.0


# ------------------------------------------------------------------- layouts
def test_load_shape_socket_splits():
    assert LoadShape.FULL.ranks_per_socket(24) == (24, 24)
    assert LoadShape.HALF_ONE_SOCKET.ranks_per_socket(24) == (24, 0)
    assert LoadShape.HALF_TWO_SOCKETS.ranks_per_socket(24) == (12, 12)


def test_half_two_sockets_needs_even_socket():
    with pytest.raises(ValueError, match="even socket size"):
        LoadShape.HALF_TWO_SOCKETS.ranks_per_socket(3)


@pytest.mark.parametrize(
    "ranks,shape,nodes,rpn,split",
    [
        # Table 1, row by row.
        (144, LoadShape.FULL, 3, 48, (24, 24)),
        (144, LoadShape.HALF_ONE_SOCKET, 6, 24, (24, 0)),
        (144, LoadShape.HALF_TWO_SOCKETS, 6, 24, (12, 12)),
        (576, LoadShape.FULL, 12, 48, (24, 24)),
        (576, LoadShape.HALF_ONE_SOCKET, 24, 24, (24, 0)),
        (576, LoadShape.HALF_TWO_SOCKETS, 24, 24, (12, 12)),
        (1296, LoadShape.FULL, 27, 48, (24, 24)),
        (1296, LoadShape.HALF_ONE_SOCKET, 54, 24, (24, 0)),
        (1296, LoadShape.HALF_TWO_SOCKETS, 54, 24, (12, 12)),
    ],
)
def test_table1_rows(ranks, shape, nodes, rpn, split):
    layout = layout_for(ranks, shape, marconi_a3())
    assert layout.nodes == nodes
    assert layout.ranks_per_node == rpn
    assert layout.ranks_per_socket == split


def test_table1_layouts_has_nine_rows():
    layouts = table1_layouts(marconi_a3())
    assert len(layouts) == 9
    assert {l.ranks for l in layouts} == set(TABLE1_RANKS)


def test_layout_validation():
    with pytest.raises(ValueError, match="!="):
        Layout(ranks=100, nodes=3, ranks_per_node=48,
               ranks_per_socket=(24, 24), shape=LoadShape.FULL)
    with pytest.raises(ValueError, match="socket split"):
        Layout(ranks=144, nodes=3, ranks_per_node=48,
               ranks_per_socket=(20, 20), shape=LoadShape.FULL)


def test_layout_indivisible_ranks_rejected():
    with pytest.raises(ValueError, match="not divisible"):
        layout_for(100, LoadShape.FULL, marconi_a3())


# ----------------------------------------------------------------- placement
def test_placement_full_load():
    placement = place_ranks(96, LoadShape.FULL, marconi_a3())
    assert placement.n_ranks == 96
    # Ranks 0..23 on node0/socket0, 24..47 on node0/socket1, 48.. on node1.
    assert placement.core_of(0).key == (0, 0, 0)
    assert placement.core_of(23).key == (0, 0, 23)
    assert placement.core_of(24).key == (0, 1, 0)
    assert placement.core_of(47).key == (0, 1, 23)
    assert placement.core_of(48).key == (1, 0, 0)
    assert placement.node_of(95) == 1
    assert placement.active_sockets(0) == [0, 1]


def test_placement_half_one_socket_leaves_socket1_idle():
    placement = place_ranks(48, LoadShape.HALF_ONE_SOCKET, marconi_a3())
    assert placement.layout.nodes == 2
    assert placement.active_sockets(0) == [0]
    assert placement.ranks_on_socket(0, 1) == []
    assert len(placement.ranks_on_socket(0, 0)) == 24


def test_placement_half_two_sockets():
    placement = place_ranks(48, LoadShape.HALF_TWO_SOCKETS, marconi_a3())
    assert placement.layout.nodes == 2
    assert len(placement.ranks_on_socket(0, 0)) == 12
    assert len(placement.ranks_on_socket(0, 1)) == 12


def _scanned_occupancies(placement):
    """Per-node socket counts by the per-(node, socket) rank scan."""
    sockets = placement.machine.sockets_per_node
    return [tuple(len(placement.ranks_on_socket(node, s))
                  for s in range(sockets))
            for node in range(placement.layout.nodes)]


@pytest.mark.parametrize("layout", table1_layouts(marconi_a3()) + [
    layout_for(3188, shape, marconi_a3(), allow_tail=True)
    for shape in LoadShape
], ids=lambda layout: f"{layout.ranks}-{layout.shape.value}")
def test_socket_occupancies_match_the_rank_scan(layout):
    machine = marconi_a3()
    placement = Placement(layout, machine)
    scanned = _scanned_occupancies(placement)
    assert layout.socket_occupancies(machine.sockets_per_node) == scanned
    assert placement.socket_occupancies() == scanned


def test_placement_rejects_oversubscription():
    machine = small_test_machine(cores_per_socket=2)
    layout = Layout(ranks=8, nodes=1, ranks_per_node=8,
                    ranks_per_socket=(4, 4), shape=LoadShape.FULL)
    with pytest.raises(ValueError, match="exceeds"):
        Placement(layout, machine)


@settings(max_examples=30, deadline=None)
@given(
    n_nodes=st.integers(min_value=1, max_value=8),
    shape=st.sampled_from(list(LoadShape)),
)
def test_property_placement_is_a_partition(n_nodes, shape):
    machine = marconi_a3()
    rpn = sum(shape.ranks_per_socket(machine.cores_per_socket))
    ranks = n_nodes * rpn
    placement = place_ranks(ranks, shape, machine)
    seen = set()
    for rank in range(ranks):
        core = placement.core_of(rank)
        assert core.key not in seen, "two ranks bound to one core"
        seen.add(core.key)
        assert 0 <= core.node_id < n_nodes
    # Every node hosts exactly ranks_per_node ranks.
    for node_id in range(n_nodes):
        assert len(placement.ranks_on_node(node_id)) == rpn


# ------------------------------------------------------------------- network
def test_fabric_inter_vs_intra_node():
    fabric = ClusterFabric(marconi_a3().network)
    intra = fabric.transfer_time(1_000_000, 0, 0)
    inter = fabric.transfer_time(1_000_000, 0, 1)
    assert intra < inter


def test_fabric_jitter_is_seeded_and_bounded():
    params = marconi_a3().network
    f1 = ClusterFabric(params, jitter_frac=0.1, seed=7)
    f2 = ClusterFabric(params, jitter_frac=0.1, seed=7)
    t1 = [f1.transfer_time(1000, 0, 1) for _ in range(50)]
    t2 = [f2.transfer_time(1000, 0, 1) for _ in range(50)]
    assert t1 == t2  # deterministic under a fixed seed
    base = ClusterFabric(params).transfer_time(1000, 0, 1)
    assert all(0.9 * base <= t <= 1.1 * base for t in t1)
    assert len(set(t1)) > 1  # but actually jittered


def test_fabric_rejects_bad_jitter():
    with pytest.raises(ValueError):
        ClusterFabric(marconi_a3().network, jitter_frac=1.5)
