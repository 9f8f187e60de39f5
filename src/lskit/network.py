"""Functional map network: graph topology over a shape collection with a
functional map on every directed edge. Networks are symmetric (both directions
of every edge populated, each computed independently) and connected.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InsufficientShapes, NonBijective, ProviderFailure
from .fmaps import FunctionalMap, fmap_from_correspondence, identity_correspondence
from .spectral import Shape

logger = logging.getLogger(__name__)


def dna_distances(dnas):
    """Pairwise Euclidean distances between shape-DNA descriptor vectors."""
    lengths = sorted({np.size(d) for d in dnas})
    if len(lengths) > 1:
        raise DimensionMismatch(f"shape-DNA lengths {lengths[0]} and {lengths[-1]} differ: compute all spectra at one k")
    D = np.stack([np.asarray(d, dtype=np.float64) for d in dnas])
    diff = D[:, None, :] - D[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


class _DisjointSets:
    """Union-find over 0..n-1 with path halving."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b):
        """Merge the sets of a and b; False when they already were one."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def _mst_edges(dist):
    """Kruskal MST with (weight, i, j) ordering, so ties break by index."""
    n = dist.shape[0]
    sets = _DisjointSets(n)
    edges = sorted((dist[i, j], i, j) for i in range(n) for j in range(i + 1, n))
    out = []
    for _, i, j in edges:
        if sets.union(i, j):
            out.append((i, j))
            if len(out) == n - 1:
                break
    return out


def build_topology(dnas, kind, k_nn=None, order=None):
    """Undirected edge list (index pairs, i < j) over descriptor vectors.

    kind: 'mst' | 'knn' (requires k_nn) | 'clique' | 'chain' (optional order).
    kNN graphs are symmetrized by union and, if disconnected, augmented with
    the MST edges needed to connect them (logged). Deterministic throughout:
    distance ties break by shape index.
    """
    n = len(dnas)
    if n < 2:
        raise InsufficientShapes(f"topology needs at least 2 shapes, got {n}")
    if kind == "chain":
        seq = list(order) if order is not None else list(range(n))
        return [(min(a, b), max(a, b)) for a, b in zip(seq[:-1], seq[1:])]
    if kind == "clique":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]

    dist = dna_distances(dnas)
    if kind == "mst":
        return sorted(_mst_edges(dist))
    if kind == "knn":
        if k_nn is None or k_nn < 1:
            raise ValueError("knn topology requires k_nn >= 1")
        if k_nn >= n - 1:
            logger.info("k_nn=%d saturates %d shapes; using the clique", k_nn, n)
            return [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = set()
        for i in range(n):
            # argsort is stable, so equal distances resolve by index
            near = [j for j in np.argsort(dist[i], kind="stable") if j != i][:k_nn]
            for j in near:
                edges.add((min(i, int(j)), max(i, int(j))))
        sets = _DisjointSets(n)
        if sum(sets.union(i, j) for i, j in edges) < n - 1:  # disconnected
            for i, j in _mst_edges(dist):
                if sets.union(i, j):
                    edges.add((i, j))
                    logger.info("knn graph disconnected; added mst edge (%d, %d)", i, j)
        return sorted(edges)
    raise ValueError(f"unknown topology kind {kind!r}")


def two_cluster_topology(dnas, labels):
    """Per-cluster MSTs joined by nearest-neighbor cross links.

    labels: sequence of 0/1 cluster assignments. Returns (edges, cross_edges)
    where cross_edges are the subset bridging the clusters (one nearest
    neighbor per shape, symmetrized).
    """
    labels = np.asarray(labels)
    dist = dna_distances(dnas)
    edges = set()
    for c in (0, 1):
        idx = np.nonzero(labels == c)[0]
        if idx.size == 0:
            raise InsufficientShapes(f"cluster {c} is empty")
        if idx.size > 1:
            sub = dist[np.ix_(idx, idx)]
            for a, b in _mst_edges(sub):
                i, j = int(idx[a]), int(idx[b])
                edges.add((min(i, j), max(i, j)))
    cross = set()
    for i in range(len(dnas)):
        other = np.nonzero(labels != labels[i])[0]
        j = int(other[np.argmin(dist[i, other])])
        cross.add((min(i, j), max(i, j)))
    return sorted(edges | cross), sorted(cross)


@dataclass(frozen=True)
class FMNetwork:
    """Nodes are shapes; `edges` maps every directed id pair to its map."""

    shapes: list
    edges: dict
    topology_tag: str = "custom"
    _by_id: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_by_id", {s.shape_id: s for s in self.shapes})
        ids = set(self._by_id)
        if len(ids) != len(self.shapes):
            raise ValueError("duplicate shape ids")
        for (i, j), fm in self.edges.items():
            if i not in ids or j not in ids:
                raise ValueError(f"edge ({i}, {j}) references unknown shape")
            if (j, i) not in self.edges:
                raise ValueError(f"network not symmetric: missing reverse of ({i}, {j})")
            if fm.source_id != i or fm.target_id != j:
                raise ValueError(f"edge ({i}, {j}) carries a map for ({fm.source_id}, {fm.target_id})")
        if not self._connected():
            raise ValueError("functional map network must be connected")

    def _connected(self):
        index = {sid: pos for pos, sid in enumerate(self._by_id)}
        sets = _DisjointSets(len(index))
        return sum(sets.union(index[i], index[j]) for i, j in self.edges) >= len(index) - 1

    @property
    def ids(self):
        return [s.shape_id for s in self.shapes]

    def shape(self, shape_id) -> Shape:
        return self._by_id[shape_id]

    def undirected_edges(self):
        return sorted({(min(i, j), max(i, j)) for i, j in self.edges})

    def spectra(self):
        return {s.shape_id: s.basis.eigenvalues for s in self.shapes}


def attach_maps(shapes, topology, map_provider, topology_tag="custom") -> FMNetwork:
    """Populate both directions of every topology edge via the provider.

    map_provider(src: Shape, tgt: Shape) -> FunctionalMap. Reverse maps are
    requested from the provider, never derived by inverting the forward map.
    """
    edges = {}
    for i, j in topology:
        for src, tgt in ((shapes[i], shapes[j]), (shapes[j], shapes[i])):
            edges[(src.shape_id, tgt.shape_id)] = _provider_map(map_provider, src, tgt)
    return FMNetwork(list(shapes), edges, topology_tag)


def _provider_map(map_provider, src: Shape, tgt: Shape) -> FunctionalMap:
    """The provider's map for the directed edge (src, tgt). Any exception it
    raises, and a result that is not a finite FunctionalMap, becomes a
    ProviderFailure naming the edge: the one place that names it."""
    edge = (src.shape_id, tgt.shape_id)
    try:
        fm = map_provider(src, tgt)
    except Exception as exc:
        raise ProviderFailure(edge, exc) from exc
    if not isinstance(fm, FunctionalMap) or not np.all(np.isfinite(fm.matrix)):
        raise ProviderFailure(edge, "invalid map returned")
    return fm


def identity_map_provider(src: Shape, tgt: Shape) -> FunctionalMap:
    """Provider for shared-connectivity collections (identity correspondence)."""
    if src.basis.num_vertices != tgt.basis.num_vertices:
        raise NonBijective("identity correspondence needs equal vertex counts")
    return fmap_from_correspondence(src, tgt, identity_correspondence(src.basis.num_vertices))


@dataclass(frozen=True)
class ConsistencyReport:
    """Frobenius residuals of map compositions around cycles."""

    cycles: list  # list of id tuples, cycle[0] == cycle[-1]
    residuals: np.ndarray

    @property
    def min(self):
        return float(self.residuals.min()) if self.residuals.size else 0.0

    @property
    def mean(self):
        return float(self.residuals.mean()) if self.residuals.size else 0.0

    @property
    def max(self):
        return float(self.residuals.max()) if self.residuals.size else 0.0


def _tree_paths(net):
    """BFS spanning tree from the first node: parent pointers and tree edges."""
    ids = net.ids
    undirected = net.undirected_edges()
    adj = {}
    for i, j in undirected:
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    root = ids[0]
    parent = {root: None}
    queue = [root]
    while queue:
        u = queue.pop(0)
        for v in sorted(adj.get(u, [])):
            if v not in parent:
                parent[v] = u
                queue.append(v)
    tree = {(min(u, v), max(u, v)) for u, v in ((v, p) for v, p in parent.items() if p)}
    return parent, tree, undirected


def _path_to_root(parent, u):
    path = [u]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path


def consistency_report(net: FMNetwork) -> ConsistencyReport:
    """Compose maps around cycles and report || composition - I ||_F.

    Covered cycles: the round trip i -> j -> i of every undirected edge, plus
    one fundamental cycle per non-tree edge of a BFS spanning tree. Tree and
    chain networks therefore still produce a (round-trip) report.
    """
    parent, tree, undirected = _tree_paths(net)
    cycles = [(i, j, i) for i, j in undirected]
    for i, j in undirected:
        if (i, j) in tree:
            continue
        pi, pj = _path_to_root(parent, i), _path_to_root(parent, j)
        pj_set = set(pj)
        anc = next(u for u in pi if u in pj_set)  # lowest common ancestor
        up = pi[: pi.index(anc) + 1]  # i .. anc
        down = pj[: pj.index(anc)][::-1]  # first tree step below anc .. j
        cycles.append(tuple(up + down + [i]))  # close through the non-tree edge
    residuals = []
    for cycle in cycles:
        k0 = net.shape(cycle[0]).basis.k
        T = np.eye(k0)
        for a, b in zip(cycle[:-1], cycle[1:]):
            T = net.edges[(a, b)].matrix @ T
        residuals.append(float(np.linalg.norm(T - np.eye(k0), "fro")))
    return ConsistencyReport(cycles, np.asarray(residuals))
