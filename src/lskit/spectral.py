"""Per-shape discrete spectral geometry.

Builds the cotangent stiffness matrix and barycentric lumped mass matrix of a
triangle mesh, solves the generalized eigenproblem L phi = lambda M phi for the
truncated Laplace-Beltrami basis, and extracts spectrum-prefix (shape-DNA)
descriptors. The mass is computed with the measure; the stiffness is assembled
when it is first used, so a reader of the mass alone assembles none.
"""

import functools
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as sla

from .errors import DegenerateGeometry, DimensionMismatch, InvalidArgument, RankDeficientMass, SolverFailure, SpectralGapWarning
from .meshes import Mesh

# Dense symmetric eigensolve at or below this matrix size, shift-invert Lanczos
# above it. Both eigenproblems (Laplacian pencil and latent block form) cross
# over between 640 and 1200: measured table in CHANGES.md.
DENSE_SOLVER_MAX_SIZE = 1000

# relative gap under which adjacent eigenvalues are treated as one cluster
CLUSTER_GAP_TOL = 1e-8


class MetricMeasure:
    """Cotangent stiffness L (sparse, PSD) and lumped vertex areas (diagonal of M).

    `stiffness` is L, or a function of no arguments that assembles it: then L
    is assembled when `.stiffness` is first read, and kept. `metric_measure`
    gives such a function, so the commands that read a member's mass alone
    (`fmn`, `latent`, `ops mix`) assemble no stiffness; the eigensolves of
    `spectra` and `extend` do.
    """

    def __init__(self, stiffness, mass_diag, shape_id=""):
        self._stiffness = stiffness
        self.mass_diag = mass_diag
        self.shape_id = shape_id

    @property
    def stiffness(self) -> sparse.csr_matrix:
        if callable(self._stiffness):  # kept in place of the geometry it is assembled from
            self._stiffness = self._stiffness()
        return self._stiffness

    @property
    def num_vertices(self):
        return self.mass_diag.shape[0]


@dataclass(frozen=True)
class SpectralBasis:
    """Truncated Laplace-Beltrami eigenbasis of one shape: all that the
    pipeline uses of a shape after the per-shape stage.

    eigenvalues : (k,) ascending, nonnegative
    eigenvectors : (n, k), M-orthonormal columns; None for a basis read
        without them (`ops align` builds its per-cluster latent bases from
        the eigenvalues alone), which then has no `num_vertices`.
    mass : (n,) lumped vertex areas, the diagonal of the M that the
        eigenvectors are orthonormal in; None for a basis read without it.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    shape_id: str = ""
    mass: np.ndarray = None

    @property
    def k(self):
        return self.eigenvalues.shape[0]

    @property
    def num_vertices(self):
        return self.eigenvectors.shape[0]


def metric_measure(mesh: Mesh) -> MetricMeasure:
    """Cotangent stiffness and barycentric (one-third triangle area) mass.

    The mass is computed here, the stiffness when it is first read
    (`_stiffness`), from the edge vectors and doubled triangle areas computed
    here once.
    """
    v, t = mesh.vertices, mesh.triangles
    n = mesh.num_vertices

    # edge vectors opposite each corner: corner c sees edge t[c+1] -> t[c+2]
    p = [v[t[:, i]] for i in range(3)]
    edges = [p[2] - p[1], p[0] - p[2], p[1] - p[0]]
    double_area = np.linalg.norm(np.cross(edges[0], -edges[2]), axis=1)

    areas = 0.5 * double_area
    mass = np.zeros(n)
    for corner in range(3):
        np.add.at(mass, t[:, corner], areas / 3.0)
    if np.any(mass <= 0):
        raise DegenerateGeometry(f"vertex with zero lumped area on mesh '{mesh.shape_id}'")
    return MetricMeasure(functools.partial(_stiffness, mesh, edges, double_area), mass, mesh.shape_id)


def _stiffness(mesh, edges, double_area):
    """The cotangent stiffness of `mesh`, from `metric_measure`'s edge vectors
    and doubled triangle areas, in its positive semidefinite convention:
    off-diagonal entries -(cot a + cot b)/2, diagonal minus the row sum, so
    that constants are in the kernel and x^T L x >= 0."""
    t, n = mesh.triangles, mesh.num_vertices
    rows, cols, vals = [], [], []
    for corner in range(3):
        a, b = (corner + 1) % 3, (corner + 2) % 3
        # cot of the angle at `corner` weights the opposite edge (a, b)
        u, w = -edges[b], edges[a]
        cot = np.einsum("ij,ij->i", u, w) / double_area
        half_cot = 0.5 * cot
        i, j = t[:, a], t[:, b]
        rows += [i, j, i, j]
        cols += [j, i, i, j]
        vals += [-half_cot, -half_cot, half_cot, half_cot]
    vals = np.concatenate(vals)
    if not np.all(np.isfinite(vals)):
        raise DegenerateGeometry(f"non-finite cotangent weight on mesh '{mesh.shape_id}'")
    return sparse.coo_matrix(
        (vals, (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    ).tocsr()


def _eigen_clusters(eigenvalues, tol=CLUSTER_GAP_TOL):
    """(start, stop) ranges of adjacent eigenvalues closer than tol * scale."""
    lam = np.asarray(eigenvalues)
    if lam.size < 2:
        return ()
    scale = max(1.0, float(np.max(np.abs(lam))))
    close = np.diff(lam) < tol * scale
    clusters = []
    start = None
    for i, c in enumerate(close):
        if c and start is None:
            start = i
        elif not c and start is not None:
            clusters.append((start, i + 1))
            start = None
    if start is not None:
        clusters.append((start, lam.size))
    return tuple(clusters)


def _fix_signs(vecs):
    """Flip columns so the entry of largest magnitude is positive."""
    idx = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[idx, np.arange(vecs.shape[1])])
    signs[signs == 0] = 1.0
    return vecs * signs


def _lowest_eigenpairs(A, count, M=None, what="matrix"):
    """Smallest eigenpairs of the symmetric pencil (A, diag(M)); M=None is I.

    Returns min(count + 1, size) ascending eigenvalues, one past `count` so
    that callers can check the gap at the cut, and the first `count`
    eigenvectors, M-orthonormal, each with its largest-magnitude entry
    positive.

    Dense solve (through the M^(-1/2) similarity transform) at or below
    DENSE_SOLVER_MAX_SIZE, and when an eighth or more of the spectrum is
    wanted: shift-invert cost grows with the square of its Lanczos basis
    (2 * count + 1 vectors) and loses to dense from about a ninth on, and
    ARPACK needs fewer pairs than the size. Shift-invert Lanczos otherwise,
    from a fixed pseudo-random start vector: a structured start such as the
    constant vector can be an exact eigenvector and leave members of a
    degenerate band out of the Krylov space.
    """
    size = A.shape[0]
    want = min(count + 1, size)
    if size <= DENSE_SOLVER_MAX_SIZE or 8 * want >= size:
        dense = A.toarray()
        if M is not None:
            inv_sqrt_m = 1.0 / np.sqrt(M)
            dense = dense * inv_sqrt_m[:, None] * inv_sqrt_m[None, :]
        try:
            lam, vecs = scipy.linalg.eigh(0.5 * (dense + dense.T), subset_by_index=(0, want - 1))
        except scipy.linalg.LinAlgError as exc:
            raise SolverFailure(f"dense eigensolve of {what} failed: {exc}") from exc
        if M is not None:
            vecs = vecs * inv_sqrt_m[:, None]
    else:
        scale = max(float(np.mean(A.diagonal())), 1.0)
        try:
            lam, vecs = sla.eigsh(
                A.tocsc(),
                k=want,
                M=None if M is None else sparse.diags(M).tocsc(),
                sigma=-1e-8 * scale,
                which="LM",
                v0=np.random.default_rng(0).standard_normal(size),
            )
        except sla.ArpackError as exc:
            raise SolverFailure(f"shift-invert eigensolve of {what} failed: {exc}") from exc
        order = np.argsort(lam)
        lam, vecs = lam[order], vecs[:, order]
    return lam, _fix_signs(vecs[:, :count])


def eigenbasis(mm: MetricMeasure, k: int) -> SpectralBasis:
    """k smallest generalized eigenpairs of (L, M), M-orthonormal, ascending,
    with M's diagonal as the basis's mass.

    Solved by `_lowest_eigenpairs` (dense or shift-invert by size), which
    fixes the start vector and the sign of each eigenvector, so the output is
    deterministic. Emits SpectralGapWarning when eigenvalues k and k+1 are
    closer than CLUSTER_GAP_TOL (relative): k then splits a cluster.
    """
    n = mm.num_vertices
    if not 1 <= k <= n:
        raise DimensionMismatch(f"shape '{mm.shape_id}': k={k} must be in 1..{n}")
    if np.any(mm.mass_diag <= 0):
        raise RankDeficientMass(f"mass matrix of '{mm.shape_id}' has non-positive entries")

    lam, vecs = _lowest_eigenpairs(mm.stiffness, k, mm.mass_diag, f"shape '{mm.shape_id}'")
    # clip the rounding noise on the zero mode(s)
    floor = -1e-10 * max(1.0, abs(float(lam[-1])))
    lam = np.where((lam < 0) & (lam > floor), 0.0, lam)
    scale = max(1.0, float(np.max(np.abs(lam))))
    if lam.size > k and lam[k] - lam[k - 1] < CLUSTER_GAP_TOL * scale:
        warnings.warn(
            f"shape '{mm.shape_id}': truncation at k={k} splits an eigenvalue cluster "
            f"at {lam[k - 1]:.6g}; the spanned subspace is discretization-sensitive",
            SpectralGapWarning,
            stacklevel=2,
        )
    return SpectralBasis(lam[:k], vecs, mm.shape_id, mm.mass_diag)


def shape_dna(basis: SpectralBasis, d=None) -> np.ndarray:
    """First d eigenvalues as an isometry-invariant descriptor vector."""
    if d is None:
        d = basis.k
    if not 1 <= d <= basis.k:
        raise InvalidArgument(f"d={d} must be in 1..{basis.k}")
    return basis.eigenvalues[:d].copy()


def compute_shape(mesh: Mesh, k: int) -> SpectralBasis:
    """Run the per-shape stage: metric/measure then truncated eigenbasis."""
    return eigenbasis(metric_measure(mesh), k)
