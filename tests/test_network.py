import numpy as np
import pytest

from helpers import all_spanning_trees, bumpy_sphere, cached_bumpy_shape, full_info_family, identity_net
from lskit.errors import DimensionMismatch, InsufficientShapes, ProviderFailure
from lskit.fmaps import FunctionalMap
from lskit.network import (
    FMNetwork,
    attach_maps,
    build_topology,
    consistency_report,
    dna_distances,
    identity_map_provider,
    two_cluster_topology,
)
from lskit.spectral import compute_shape, shape_dna
from lskit.synth import chain_family


def test_two_shapes_single_edge():
    dnas = [np.array([0.0, 1.0]), np.array([0.0, 2.0])]
    for kind in ("mst", "clique", "chain"):
        assert build_topology(dnas, kind) == [(0, 1)]
    assert build_topology(dnas, "knn", k_nn=1) == [(0, 1)]


def test_insufficient_shapes():
    with pytest.raises(InsufficientShapes):
        build_topology([np.array([1.0])], "mst")


def test_mst_on_collinear_descriptors_is_path():
    # descriptors on a line with unit spacing; brute-force all spanning trees
    dnas = [np.array([float(i)]) for i in range(4)]
    edges = build_topology(dnas, "mst")
    assert edges == [(0, 1), (1, 2), (2, 3)]
    dist = dna_distances(dnas)
    all_edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    best = min(all_spanning_trees(4, all_edges), key=lambda tr: sum(dist[i, j] for i, j in tr))
    assert sum(dist[i, j] for i, j in best) == sum(dist[i, j] for i, j in edges)


@pytest.mark.parametrize("kind", ["mst", "knn"])
def test_descriptors_of_different_lengths(kind):
    dnas = [np.arange(12.0), np.arange(10.0), np.arange(12.0)]
    with pytest.raises(DimensionMismatch, match="shape-DNA lengths 10 and 12 differ"):
        build_topology(dnas, kind, k_nn=1)


def test_clique_count():
    dnas = [np.array([float(i)]) for i in range(5)]
    edges = build_topology(dnas, "clique")
    assert len(edges) == 10
    base = cached_bumpy_shape(0, 0, 6)
    five = [base] + [compute_shape(bumpy_sphere(0, 0, shape_id=f"t{i}"), 6) for i in range(4)]
    net = attach_maps(five, build_topology([shape_dna(s) for s in five], "clique"), identity_map_provider, "clique")
    assert len(net.edges) == 20  # n(n-1) directed maps


def test_knn_saturation_falls_back_to_clique():
    dnas = [np.array([float(i)]) for i in range(4)]
    assert build_topology(dnas, "knn", k_nn=10) == build_topology(dnas, "clique")


def test_knn_disconnection_repair():
    # two tight pairs far apart; k_nn=1 keeps them separate until augmented
    dnas = [np.array([0.0]), np.array([0.1]), np.array([100.0]), np.array([100.1])]
    edges = build_topology(dnas, "knn", k_nn=1)
    assert (0, 1) in edges and (2, 3) in edges
    assert (1, 2) in edges  # the mst bridge


def test_chain_follows_order():
    dnas = [np.array([float(i)]) for i in range(4)]
    assert build_topology(dnas, "chain", order=[2, 0, 3, 1]) == [(0, 2), (0, 3), (1, 3)]


def test_two_cluster_topology_structure():
    dnas = [np.array([v]) for v in (0.0, 0.2, 0.4, 10.0, 10.2, 10.4)]
    labels = [0, 0, 0, 1, 1, 1]
    edges, cross = two_cluster_topology(dnas, labels)
    assert (0, 1) in edges and (1, 2) in edges
    assert (3, 4) in edges and (4, 5) in edges
    assert all(labels[i] != labels[j] for i, j in cross)
    assert len(cross) >= 1


def test_attach_maps_identity_and_chain_count():
    fam = chain_family(23, cycle=True, subdivisions=1)
    shapes = [compute_shape(m, 10) for m in fam.meshes]
    net = identity_net(shapes, "chain", order=list(range(23)))
    assert len(net.edges) == 44  # 23 frames in a chain: 2 * 22 directed maps
    assert net.topology_tag == "chain"


def test_identity_maps_on_identical_shapes():
    shape = cached_bumpy_shape(1, 1, 10)
    twins = [shape] + [compute_shape(bumpy_sphere(1, 1, shape_id=sid), 10) for sid in "bc"]
    net = identity_net(twins)
    for fm in net.edges.values():
        assert np.abs(fm.matrix - np.eye(10)).max() <= 1e-9


def test_provider_failure_names_edge():
    shapes = [cached_bumpy_shape(i, 1, 8) for i in range(3)]

    def flaky(src, tgt):
        if tgt.shape_id == shapes[2].shape_id:
            raise RuntimeError("boom")
        return identity_map_provider(src, tgt)

    with pytest.raises(ProviderFailure) as err:
        attach_maps(shapes, [(0, 1), (1, 2)], flaky, "chain")
    assert shapes[2].shape_id in str(err.value)


def test_network_invariants_enforced():
    shapes = [cached_bumpy_shape(i, 1, 8) for i in range(3)]
    ids = [s.shape_id for s in shapes]
    fm01 = identity_map_provider(shapes[0], shapes[1])
    fm10 = identity_map_provider(shapes[1], shapes[0])
    with pytest.raises(ValueError, match="not symmetric"):
        FMNetwork(shapes, {(ids[0], ids[1]): fm01}, "x")
    with pytest.raises(ValueError, match="connected"):
        FMNetwork(shapes, {(ids[0], ids[1]): fm01, (ids[1], ids[0]): fm10}, "x")


def test_consistency_identity_maps_zero():
    shapes = [cached_bumpy_shape(4, 1, 8)]
    twins = shapes + [compute_shape(bumpy_sphere(4, 1, shape_id=sid), 8) for sid in ("t1", "t2")]
    net = identity_net(twins)
    report = consistency_report(net)
    assert report.max <= 1e-9
    assert len(report.cycles) >= len(net.undirected_edges())


def test_consistency_exact_maps_full_basis():
    _, net = full_info_family(subdivisions=1, count=3)
    report = consistency_report(net)
    assert report.max <= 1e-8


def test_consistency_detects_corrupted_edge():
    shapes, net = full_info_family(subdivisions=1, count=3)
    ids = net.ids
    rng = np.random.default_rng(0)
    noise = rng.standard_normal(net.edges[(ids[0], ids[1])].matrix.shape)
    noise *= 0.1 / np.linalg.norm(noise, "fro")
    edges = dict(net.edges)
    bad = edges[(ids[0], ids[1])]
    edges[(ids[0], ids[1])] = FunctionalMap(bad.matrix + noise, ids[0], ids[1])
    corrupted = FMNetwork(net.shapes, edges, net.topology_tag)
    report = consistency_report(corrupted)
    assert report.max >= 0.05
