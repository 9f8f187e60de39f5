"""Variability detection on latent difference operators.

A projected difference P(F) = D (I - F F^T) + F F^T acts as D off the span of
F and as the identity on it, i.e. it suppresses whatever deformation the
functions in F express. Maximizing the total amount of suppression over a unit
function alpha yields the collection's distinctive functions: eigenvectors of
sums of squared operator differences (globally, or across-minus-within a
two-cluster partition).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrumWarning,
    InsufficientShapes,
    InvalidArgument,
    NonOrthonormalF,
    NotFullInformation,
    UnknownShape,
)
from .latent import ConsistentLatentBasis, LatentDifference
from .spectral import CLUSTER_GAP_TOL, SpectralBasis, _fix_signs

ORTHONORMAL_TOL = 1e-10


@dataclass(frozen=True)
class ProjectionBasis:
    """Orthonormal functions on the latent shape, as columns of F (m x p)."""

    F: np.ndarray
    description: str = ""

    @property
    def p(self):
        return self.F.shape[1]


def _as_matrix(D):
    return D.matrix if isinstance(D, LatentDifference) else np.asarray(D, dtype=np.float64)


def _as_F(F, m=None):
    mat = F.F if isinstance(F, ProjectionBasis) else np.asarray(F, dtype=np.float64)
    if mat.ndim == 1:
        mat = mat[:, None]
    if m is not None and mat.shape[0] != m:
        raise NonOrthonormalF(f"F has {mat.shape[0]} rows, operators are {m}x{m}")
    p = mat.shape[1]
    if p and np.max(np.abs(mat.T @ mat - np.eye(p))) > ORTHONORMAL_TOL:
        raise NonOrthonormalF("columns of F are not orthonormal")
    return mat


def project_difference(D, F):
    """P(F) = D (I - F F^T) + F F^T; full F gives I, empty F gives D."""
    Dm = _as_matrix(D)
    Fm = _as_F(F, Dm.shape[0])
    if Fm.shape[1] == 0:
        return Dm.copy()
    FFt = Fm @ Fm.T
    return Dm @ (np.eye(Dm.shape[0]) - FFt) + FFt


def delta(D_i, D_j, F):
    """Suppression gain trace(F^T (D_i - D_j)^T (D_i - D_j) F), always >= 0.

    Equals the drop in squared Frobenius distance between the operators after
    projection on F. For symmetric (area-kind) operators this is the square
    of the difference; the Gram form keeps the identity (and nonnegativity)
    valid for non-symmetric operators too.
    """
    Di, Dj = _as_matrix(D_i), _as_matrix(D_j)
    Fm = _as_F(F, Di.shape[0])
    G = (Di - Dj) @ Fm
    return float(np.sum(G * G))


@dataclass(frozen=True)
class DistinctiveFunction:
    """Unit function on the latent shape maximizing a variability objective."""

    alpha: np.ndarray
    eigenvalue: float
    mode: str  # "global" or "cross_collection"
    degenerate: bool = False


@dataclass(frozen=True)
class Partition:
    cluster_a: tuple
    cluster_b: tuple

    def __post_init__(self):
        object.__setattr__(self, "cluster_a", tuple(self.cluster_a))
        object.__setattr__(self, "cluster_b", tuple(self.cluster_b))
        if not self.cluster_a or not self.cluster_b:
            raise InsufficientShapes("both clusters must be nonempty")
        repeated = sorted({sid for c in (self.cluster_a, self.cluster_b) for sid in c if c.count(sid) > 1})
        if repeated:
            raise InvalidArgument(f"partition lists shapes {repeated} more than once")
        if set(self.cluster_a) & set(self.cluster_b):
            raise InvalidArgument("clusters must be disjoint")

    def require(self, ids):
        """UnknownShape unless every shape the partition lists is in `ids`."""
        unknown = (set(self.cluster_a) | set(self.cluster_b)) - set(ids)
        if unknown:
            raise UnknownShape(f"partition references unknown shapes {sorted(unknown)}")


def _ordered(diffs):
    """Deterministic (id, matrix) sequence from a dict or list of diffs."""
    if isinstance(diffs, dict):
        return [(sid, _as_matrix(diffs[sid])) for sid in diffs]
    out = []
    for idx, D in enumerate(diffs):
        sid = D.shape_id if isinstance(D, LatentDifference) else str(idx)
        out.append((sid, _as_matrix(D)))
    return out


def _scatter(mats):
    """(mean, sum_i (D_i - mean)^T (D_i - mean)) of a list of operators.

    Summed over unordered pairs, (D_i - D_j)^T (D_i - D_j) adds up to n times
    the scatter; the centred form keeps near-identical operators from
    cancelling, as n sum D_i^T D_i - S^T S would.
    """
    X = np.stack(mats)
    mean = X.mean(axis=0)
    R = (X - mean).reshape(-1, X.shape[2])  # rows of every centred D_i
    return mean, R.T @ R


def _top_eigvecs(Q, count, mode):
    Q = 0.5 * (Q + Q.T)
    lam, vecs = np.linalg.eigh(Q)
    lam, vecs = lam[::-1], vecs[:, ::-1]  # descending
    vecs = _fix_signs(vecs)
    count = min(count, lam.size)
    scale = max(1.0, float(np.abs(lam[0])))
    degenerate = bool(lam.size > 1 and (lam[0] - lam[1]) < CLUSTER_GAP_TOL * scale)
    degenerate = degenerate or bool(abs(lam[0]) < CLUSTER_GAP_TOL)
    if degenerate:
        warnings.warn(
            f"{mode} variability spectrum is degenerate at the top "
            f"(lambda_1={lam[0]:.3e}); the optimizer is not unique",
            DegenerateSpectrumWarning,
            stacklevel=3,
        )
    return [
        DistinctiveFunction(vecs[:, c].copy(), float(lam[c]), mode, degenerate and c == 0)
        for c in range(count)
    ]


def global_variability(diffs, count=3):
    """Distinctive functions of the whole collection: top eigenvectors of
    sum over unordered pairs of squared operator differences."""
    items = _ordered(diffs)
    if len(items) < 2:
        raise InsufficientShapes("global variability needs >= 2 shapes")
    _, scatter = _scatter([m for _, m in items])
    return _top_eigvecs(len(items) * scatter, count, "global")


def cross_collection_variability(diffs, partition: Partition, count=3, within_weight=1.0):
    """Functions maximizing across-cluster change minus within-cluster change.

    diffs must be a dict shape_id -> difference. The within sum is scaled by
    `within_weight` (1 treats both sums equally; unbalanced cluster sizes can
    motivate other weights). Eigenvalues can be negative.
    """
    if not isinstance(diffs, dict):
        raise TypeError("cross-collection variability needs diffs keyed by shape id")
    partition.require(diffs)
    na, nb = len(partition.cluster_a), len(partition.cluster_b)
    mean_a, scatter_a = _scatter([_as_matrix(diffs[sid]) for sid in partition.cluster_a])
    mean_b, scatter_b = _scatter([_as_matrix(diffs[sid]) for sid in partition.cluster_b])
    gap = mean_a - mean_b
    # over pairs (a, b): (D_a - D_b) = gap + centred D_a - centred D_b, and
    # the centred parts sum to zero within each cluster
    across = na * nb * (gap.T @ gap) + nb * scatter_a + na * scatter_b
    within = na * scatter_a + nb * scatter_b
    return _top_eigvecs(across - within_weight * within, count, "cross_collection")


def transfer_to_shape(alpha, shape: SpectralBasis, Y_i):
    """Map a latent function to a per-vertex field: f = Phi_i Y_i alpha.

    Returns (raw field, |f| rescaled to [0, 1] for visualization).
    """
    alpha = np.asarray(alpha.alpha if isinstance(alpha, DistinctiveFunction) else alpha)
    if Y_i is None:
        raise UnknownShape(f"shape {shape.shape_id!r} has no latent basis")
    if Y_i.shape[0] != shape.k or Y_i.shape[1] != alpha.shape[0]:
        raise UnknownShape(
            f"latent basis of {shape.shape_id!r} is {Y_i.shape}, "
            f"expected ({shape.k}, {alpha.shape[0]})"
        )
    f = shape.eigenvectors @ (Y_i @ alpha)
    mag = np.abs(f)
    top = float(mag.max())
    return f, mag / top if top > 0 else mag


def separation_embedding(diffs, alpha):
    """Per-shape vectors beta_i = D_i alpha and their 2D PCA coordinates.

    Returns (ids, betas (n, m), coords (n, 2)). Deterministic PCA sign: each
    principal direction has its largest-magnitude loading positive.
    """
    alpha = np.asarray(alpha.alpha if isinstance(alpha, DistinctiveFunction) else alpha)
    items = _ordered(diffs)
    ids = [sid for sid, _ in items]
    betas = np.stack([mat @ alpha for _, mat in items])
    centered = betas - betas.mean(axis=0)
    # SVD of the centered data; top-2 right singular vectors span the plane
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    comps = _fix_signs(vt[:2].T).T if vt.shape[0] else vt
    coords = np.zeros((betas.shape[0], 2))
    take = min(2, comps.shape[0])
    coords[:, :take] = centered @ comps[:take].T
    return ids, betas, coords


def adjoint_energy_commutativity_check(diffs, clb: ConsistentLatentBasis, shapes, max_quads=256, seed=0):
    """Full-information cross-check between the two variability formulations.

    Builds the squared-difference terms H_D(i, j) = (D_i - D_j)^2 from the
    area operators, and the adjoint-energy terms
    H_X(k, l) = Phi_0^T (M_k - M_l) M_l^{-1} (M_k - M_l) Phi_0 from the
    latent eigenbasis and the per-shape mass matrices, then measures the
    worst relative commutator norm over (i, j, k, l) quadruples. In the
    full-information setting (full bases, shared connectivity, exact maps)
    every term is a conjugation of a diagonal matrix by the same Phi_0, so
    the commutators vanish identically. Terms that are zero up to rounding
    (identical shapes in a pair) carry no signal and are excluded.

    shapes: dict shape_id -> SpectralBasis, each with its mass. Raises
    NotFullInformation unless every basis is full (k_i = num_vertices) and
    m = k_i.
    """
    ids = list(clb.order)
    for sid in ids:
        shp = shapes[sid]
        if shp.k != shp.num_vertices:
            raise NotFullInformation(f"shape {sid!r} has a truncated basis")
        if clb.m != shp.k:
            raise NotFullInformation(f"latent dimension m={clb.m} != k={shp.k}")
        if shp.num_vertices != shapes[ids[0]].num_vertices:
            raise NotFullInformation("shapes must share connectivity")
    phi0 = shapes[ids[0]].eigenvectors @ clb.Y[ids[0]]

    pairs = [(a, b) for a in range(len(ids)) for b in range(a + 1, len(ids))]
    H_D, H_X = {}, {}
    for a, b in pairs:
        Da, Db = _as_matrix(diffs[ids[a]]), _as_matrix(diffs[ids[b]])
        d = Da - Db
        # a noise-level difference of operators squares to pure rounding
        if np.linalg.norm(d, "fro") > 1e-10 * (np.linalg.norm(Da, "fro") + np.linalg.norm(Db, "fro")):
            H_D[(a, b)] = d @ d
        mk, ml = shapes[ids[a]].mass, shapes[ids[b]].mass
        dm = mk - ml
        if np.linalg.norm(dm) > 1e-10 * max(np.linalg.norm(mk), np.linalg.norm(ml)):
            H_X[(a, b)] = phi0.T @ ((dm * dm / ml)[:, None] * phi0)

    quads = [(p, q) for p in H_D for q in H_X]
    if len(quads) > max_quads:
        rng = np.random.default_rng(seed)
        quads = [quads[t] for t in rng.choice(len(quads), size=max_quads, replace=False)]
    worst = 0.0
    for p, q in quads:
        A, B = H_D[p], H_X[q]
        denom = np.linalg.norm(A, "fro") * np.linalg.norm(B, "fro")
        worst = max(worst, float(np.linalg.norm(A @ B - B @ A, "fro")) / denom)
    return worst
