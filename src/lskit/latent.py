"""Consistent latent basis of a functional map network, its canonical form,
and latent shape difference operators.

The consistent latent basis stacks per-shape matrices Y_i (k_i x m) minimizing
sum ||C_ij Y_i - Y_j||_F^2 under sum_i Y_i^T Y_i = I. Canonicalization rotates
the basis so that sum_i Y_i^T Lambda_i Y_i is diagonal, which pins down the
metric of the implied latent shape; the diagonal is the latent spectrum. Each
shape is then encoded, relative to that latent shape, by the operator pair

    area      D_i = Y_i^T Y_i
    conformal D_i = pinv(Lambda_0) Y_i^T Lambda_i Y_i

whose matrices are the representation everything downstream consumes.
"""

import logging
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sparse

from .errors import InsufficientShapes, InvalidArgument, RequiresCanonical, SpectralGapWarning
from .fmaps import _difference_matrix
from .network import FMNetwork, _provider_map
from .spectral import (
    CLUSTER_GAP_TOL,
    SpectralBasis,
    _eigen_clusters,
    _fix_signs,
    _lowest_eigenpairs,
    shape_dna,
)

logger = logging.getLogger(__name__)

GAP_WARN_TOL = 1e-10


@dataclass(frozen=True)
class ConsistentLatentBasis:
    """Per-shape latent basis matrices plus bookkeeping.

    Y : dict shape_id -> (k_i, m) matrix
    order : shape ids in stacking order (fixes all downstream determinism)
    consistency_residual : sum over directed edges of ||C_ij Y_i - Y_j||_F^2
    """

    Y: dict
    m: int
    order: tuple
    canonical: bool
    consistency_residual: float

    def stacked(self):
        return np.vstack([self.Y[i] for i in self.order])

    @property
    def n_shapes(self):
        return len(self.order)


@dataclass(frozen=True)
class LatentShape:
    """Spectrum of the collection's implied average shape (never embedded)."""

    spectrum: np.ndarray
    clb: ConsistentLatentBasis = field(repr=False, default=None)

    @property
    def m(self):
        return self.spectrum.shape[0]


@dataclass(frozen=True)
class LatentDifference:
    """One shape's difference operator relative to the latent shape."""

    matrix: np.ndarray
    kind: str  # "area" or "conformal"
    shape_id: str
    normalized: bool = False  # True when scaled by the collection size


def _block_matrix(net: FMNetwork, order):
    """Quadratic form of the consistency energy, assembled straight into CSC.

    For each directed edge (i, j), in edge order: block(i,i) += C^T C,
    block(j,j) += I, block(i,j) -= C^T, block(j,i) -= C. Every block that an
    edge touches is stored whole, explicit zeros included, with row indices
    ascending in each column; the summation happens in place, in `data`.
    """
    ks = [net.shape(i).k for i in order]
    offsets = np.concatenate([[0], np.cumsum(ks)])
    pos = {sid: idx for idx, sid in enumerate(order)}
    size = int(offsets[-1])
    edges = [(pos[i], pos[j], fm.matrix) for (i, j), fm in net.edges.items()]
    # edge (i, j) puts block rows i and j into block columns i and j
    col_rows = [set() for _ in order]
    for bi, bj, _ in edges:
        col_rows[bi].update((bi, bj))
        col_rows[bj].update((bi, bj))
    heights = np.array([sum(ks[b] for b in rows) for rows in col_rows], dtype=np.int64)
    nnz = int(heights @ np.asarray(ks, dtype=np.int64))
    idx_dtype = np.int32 if max(nnz, size) <= np.iinfo(np.int32).max else np.int64
    data = np.zeros(nnz)
    indices = np.empty(nnz, dtype=idx_dtype)
    indptr = np.zeros(size + 1, dtype=idx_dtype)
    np.cumsum(np.repeat(heights, ks), out=indptr[1:])
    block = {}  # (bi, bj) -> the block's (k_bi, k_bj) view into `data`
    for bj, rows in enumerate(col_rows):
        start, h = indptr[offsets[bj]], heights[bj]
        # block column bj, column-major: panel[c, r] is entry (r, c)
        panel = data[start : start + h * ks[bj]].reshape(ks[bj], h)
        panel_rows = indices[start : start + h * ks[bj]].reshape(ks[bj], h)
        r = 0
        for bi in sorted(rows):
            panel_rows[:, r : r + ks[bi]] = np.arange(offsets[bi], offsets[bi + 1])
            block[bi, bj] = panel[:, r : r + ks[bi]].T
            r += ks[bi]
    for bi, bj, C in edges:
        block[bi, bi] += C.T @ C
        block[bj, bj] += np.eye(C.shape[0])
        block[bi, bj] -= C.T
        block[bj, bi] -= C
    return sparse.csc_matrix((data, indices, indptr), shape=(size, size)), offsets


def consistent_latent_basis(net: FMNetwork, m: int) -> ConsistentLatentBasis:
    """Latent basis from the m lowest eigenvectors of the consistency form.

    The stacked eigenvectors are orthonormal, which is exactly the constraint
    sum_i Y_i^T Y_i = I. Emits SpectralGapWarning when the eigenvalue gap at m
    is below GAP_WARN_TOL (the subspace is then ill-defined).
    """
    order = tuple(net.ids)
    k_min = min(net.shape(i).k for i in order)
    if not 1 <= m <= k_min:
        raise InvalidArgument(f"m={m} must be in 1..min(k_i)={k_min}")
    W, offsets = _block_matrix(net, order)
    lam, vecs = _lowest_eigenpairs(W, m, what="the latent basis")
    if lam.size > m and lam[m] - lam[m - 1] < GAP_WARN_TOL:
        warnings.warn(
            f"latent dimension m={m} cuts a spectral gap of {lam[m] - lam[m - 1]:.3e}; "
            "the latent subspace is ill-defined",
            SpectralGapWarning,
            stacklevel=2,
        )
    residual = float(np.sum(lam[:m]))
    Y = {
        sid: vecs[offsets[idx] : offsets[idx + 1]]
        for idx, sid in enumerate(order)
    }
    return ConsistentLatentBasis(Y, m, order, False, max(residual, 0.0))


def _canonical_energy(clb: ConsistentLatentBasis, spectra: dict):
    """sum_i Y_i^T Lambda_i Y_i, accumulated in stacking order."""
    E = np.zeros((clb.m, clb.m))
    for sid in clb.order:
        E += clb.Y[sid].T @ (np.asarray(spectra[sid], dtype=np.float64)[:, None] * clb.Y[sid])
    return E


def canonicalize(clb: ConsistentLatentBasis, spectra: dict):
    """Rotate the basis so sum_i Y_i^T Lambda_i Y_i becomes diagonal.

    spectra: shape_id -> eigenvalue vector (length k_i). Returns the canonical
    basis plus the LatentShape carrying the resulting spectrum. Sign fixed per
    column; near-degenerate spectrum entries (relative gap < CLUSTER_GAP_TOL)
    are additionally ordered by the first stacked-basis entry, so the output
    is deterministic even inside clusters (logged when triggered).
    """
    E = _canonical_energy(clb, spectra)
    E = 0.5 * (E + E.T)
    lam0, U = scipy.linalg.eigh(E)
    U = _fix_signs(U)

    clusters = _eigen_clusters(lam0, CLUSTER_GAP_TOL)
    if clusters:
        first_row = clb.Y[clb.order[0]][0] @ U  # first stacked-basis entry per column
        for start, stop in clusters:
            sub = np.argsort(first_row[start:stop], kind="stable")
            U[:, start:stop] = U[:, start:stop][:, sub]
            lam0[start:stop] = lam0[start:stop][sub]
        logger.info("canonical spectrum has near-degenerate clusters %s; tie-broken", clusters)

    Y = {sid: clb.Y[sid] @ U for sid in clb.order}
    canonical = ConsistentLatentBasis(Y, clb.m, clb.order, True, clb.consistency_residual)
    return canonical, LatentShape(lam0, canonical)


def canonical_residuals(clb: ConsistentLatentBasis, spectra: dict):
    """Diagnostics: (||sum Y^T Y - I||_max, off-diagonal mass ratio of E)."""
    S = sum((clb.Y[sid].T @ clb.Y[sid] for sid in clb.order), np.zeros((clb.m, clb.m)))
    E = _canonical_energy(clb, spectra)
    ortho = float(np.max(np.abs(S - np.eye(clb.m))))
    diag_mass = float(np.linalg.norm(np.diag(E)))
    off_mass = float(np.linalg.norm(E - np.diag(np.diag(E)), "fro"))
    return ortho, off_mass / max(diag_mass, 1e-300)


def _shape_difference(Y, eigs, latent: LatentShape, n, kind, shape_id, normalized):
    """The difference operator of one shape of an n-shape collection, from its
    latent basis Y and spectrum, at the scale that `latent_differences` states."""
    scale = float(n) if normalized else 1.0
    return LatentDifference(
        _difference_matrix(Y, kind, latent.spectrum, eigs, scale, scale / n), kind, shape_id, normalized
    )


def latent_differences(clb: ConsistentLatentBasis, spectra: dict, latent: LatentShape, kind="area", normalized=False):
    """Difference operators of every shape relative to the latent shape.

    Un-normalized operators follow the defining formulas, so area operators
    sum to the identity and an isometric member of an n-shape collection maps
    to I/n; with normalized=True everything is scaled by n so that member
    reads as the identity. Conformal operators restore the constant mode
    zeroed by pinv(Lambda_0) at the matching scale.
    """
    if not clb.canonical:
        raise RequiresCanonical("latent differences need a canonical basis")
    return {
        sid: _shape_difference(clb.Y[sid], spectra[sid], latent, clb.n_shapes, kind, sid, normalized)
        for sid in clb.order
    }


def nearest_member(clb: ConsistentLatentBasis, spectra: dict, new_shape: SpectralBasis):
    """The member of the latent basis nearest `new_shape` by shape-DNA
    distance, ties by collection order. spectra: shape_id -> eigenvalue
    vector (the full shape-DNA) of every member."""
    d_new = shape_dna(new_shape, None)
    best, best_dist = None, np.inf
    for sid in clb.order:
        d = np.asarray(spectra[sid], dtype=np.float64)
        size = min(d.size, d_new.size)
        dist = float(np.linalg.norm(d[:size] - d_new[:size]))
        if dist < best_dist:
            best, best_dist = sid, dist
    return best


def extend_to_shape(
    latent: LatentShape, neighbor: SpectralBasis, new_shape: SpectralBasis, map_provider, normalized=False
):
    """Attach a new shape without recomputing the latent basis.

    Pulls the latent basis of `neighbor`, a member of the collection (for
    instance its `nearest_member`), through the provider's map
    C(neighbor -> new), and derives both difference operators. The
    collection constraint is untouched: Y_new is not re-orthogonalized
    against the rest.

    Returns (Y_new, {"area": ..., "conformal": ...}).
    """
    clb = latent.clb
    if clb is None or not clb.canonical:
        raise RequiresCanonical("extension needs the canonical latent basis")
    if not clb.order:
        raise InsufficientShapes("cannot extend an empty collection")
    if neighbor.shape_id not in clb.order:
        raise InvalidArgument(f"neighbor {neighbor.shape_id!r} has no latent basis")
    Y_new = _provider_map(map_provider, neighbor, new_shape).matrix @ clb.Y[neighbor.shape_id]
    diffs = {
        kind: _shape_difference(
            Y_new, new_shape.eigenvalues, latent, clb.n_shapes, kind, new_shape.shape_id, normalized)
        for kind in ("area", "conformal")
    }
    return Y_new, diffs


@dataclass(frozen=True)
class StabilityProbe:
    """Change-of-basis diagnostics between latent bases with/without a shape.

    T = pinv(Y_ref without extra) @ (Y_ref with extra); the diagonal-dominance
    ratio r = sum_d T_dd^2 / ||T||_F^2 is 1 for a perfectly stable basis.
    """

    T_standard: np.ndarray
    T_canonical: np.ndarray
    r_standard: float
    r_canonical: float


def _diag_dominance(T):
    total = float(np.sum(T * T))
    if total == 0.0:
        return 0.0
    return float(np.sum(np.diag(T) ** 2)) / total


def stability_probe(net: FMNetwork, extra_id: str, m: int) -> StabilityProbe:
    """Compare latent bases computed with and without one shape.

    The network must stay connected after dropping `extra_id`, and needs at
    least 3 remaining shapes. The reference shape is the first of the
    remaining order.
    """
    if extra_id not in net.ids:
        raise InvalidArgument(f"unknown shape {extra_id!r}")
    keep = [s for s in net.shapes if s.shape_id != extra_id]
    if len(keep) < 3:
        raise InsufficientShapes("stability probe needs >= 3 shapes besides the extra one")
    sub_edges = {
        (i, j): fm for (i, j), fm in net.edges.items() if i != extra_id and j != extra_id
    }
    sub = FMNetwork(keep, sub_edges, net.topology_tag)

    spectra_full = net.spectra()
    spectra_sub = sub.spectra()
    ref = sub.ids[0]

    clb_sub = consistent_latent_basis(sub, m)
    clb_full = consistent_latent_basis(net, m)
    can_sub, _ = canonicalize(clb_sub, spectra_sub)
    can_full, _ = canonicalize(clb_full, spectra_full)

    T_std = np.linalg.pinv(clb_sub.Y[ref]) @ clb_full.Y[ref]
    T_can = np.linalg.pinv(can_sub.Y[ref]) @ can_full.Y[ref]
    return StabilityProbe(T_std, T_can, _diag_dominance(T_std), _diag_dominance(T_can))
