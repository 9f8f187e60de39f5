"""Functional maps between shape pairs and pairwise difference operators.

A functional map C maps spectral coefficients of functions on a source shape
to coefficients on a target shape. The two difference operators derived from a
map are

    area      D = C^T C
    conformal D = pinv(Lambda_src) C^T Lambda_tgt C

both reducing to the identity exactly when the underlying map is an isometry
(the conformal constant mode, zeroed by the pseudo-inverse, is restored; see
`_restore_zero_mode`).
"""

import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, NonBijective, ParseError, UnderDeterminedWarning
from .spectral import SpectralBasis

PINV_REL_TOL = 1e-8
TIKHONOV_FLOOR = 1e-12
LANDMARK_RADIUS_FACTOR = 0.05


@dataclass(frozen=True)
class Correspondence:
    """Vertex pairs (source index, target index)."""

    pairs: np.ndarray
    kind: str = "full_bijection"  # or "sparse_landmarks"

    def __post_init__(self):
        object.__setattr__(self, "pairs", np.asarray(self.pairs, dtype=np.int64).reshape(-1, 2))
        if self.kind not in ("full_bijection", "sparse_landmarks"):
            raise InvalidArgument(f"unknown correspondence kind {self.kind!r}")


def identity_correspondence(n):
    idx = np.arange(n, dtype=np.int64)
    return Correspondence(np.stack([idx, idx], axis=1))


def load_correspondence(path, kind="full_bijection"):
    """The vertex pairs of a text file, one "<source> <target>" pair a line;
    ParseError naming the file otherwise."""
    try:
        pairs = np.loadtxt(path, dtype=np.int64, ndmin=2)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if pairs.size and pairs.shape[1] != 2:
        raise ParseError(f"{path}: expected two vertex indices a line, got {pairs.shape[1]}")
    return Correspondence(pairs, kind)


def save_correspondence(corr, path):
    text = "".join(f"{s} {t}\n" for s, t in corr.pairs.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


@dataclass(frozen=True)
class FunctionalMap:
    """Matrix of size (k_target, k_source) mapping spectral coefficients."""

    matrix: np.ndarray
    source_id: str
    target_id: str


@dataclass(frozen=True)
class PairDifference:
    """Difference operator of one directed shape pair, in the source basis."""

    matrix: np.ndarray
    kind: str  # "area" or "conformal"
    base_id: str
    other_id: str


def _check_bijection(corr, n_src, n_tgt):
    if corr.kind != "full_bijection":
        raise NonBijective(f"correspondence kind {corr.kind!r} is not a full bijection")
    pairs = corr.pairs
    if pairs.shape[0] != n_src or n_src != n_tgt:
        raise NonBijective(
            f"bijection needs {n_src} == {n_tgt} pairs, got {pairs.shape[0]}"
        )
    if pairs.min() < 0 or pairs[:, 0].max() >= n_src or pairs[:, 1].max() >= n_tgt:
        raise NonBijective("correspondence index out of range")
    if np.unique(pairs[:, 0]).size != n_src or np.unique(pairs[:, 1]).size != n_tgt:
        raise NonBijective("correspondence has duplicate indices")


def fmap_from_correspondence(src: SpectralBasis, tgt: SpectralBasis, corr: Correspondence) -> FunctionalMap:
    """Functional map induced by a full vertex bijection.

    C = Phi_tgt^T M_tgt P Phi_src, with P the permutation pulling a function
    given on source vertices onto the target vertex numbering. An identity
    correspondence between identical meshes gives C = I to solver precision.
    """
    _check_bijection(corr, src.num_vertices, tgt.num_vertices)
    pulled = np.empty_like(src.eigenvectors)
    pulled[corr.pairs[:, 1]] = src.eigenvectors[corr.pairs[:, 0]]
    matrix = tgt.eigenvectors.T @ (tgt.mass[:, None] * pulled)
    return FunctionalMap(matrix, src.shape_id, tgt.shape_id)


def _spectral_distance_sq(basis: SpectralBasis, center):
    """Biharmonic-style squared spectral distance from one vertex to all."""
    lam = basis.eigenvalues
    phi = basis.eigenvectors
    keep = lam > PINV_REL_TOL * max(lam.max(), 1.0)
    w = np.zeros_like(lam)
    w[keep] = 1.0 / lam[keep] ** 2
    diff = phi - phi[center]
    return (diff * diff) @ w


def _landmark_descriptors(basis: SpectralBasis, landmarks):
    """Unit-mass Gaussian blobs around landmark vertices, as spectral coeffs.

    Blob radius is LANDMARK_RADIUS_FACTOR of the spectral-distance range seen
    from the landmark (the surrogate distance is not in length units, so the
    radius is expressed relative to the field's own diameter).
    """
    cols = []
    for v in landmarks:
        d = np.sqrt(np.maximum(_spectral_distance_sq(basis, int(v)), 0.0))
        sigma = LANDMARK_RADIUS_FACTOR * float(d.max())
        if sigma <= 0:
            sigma = 1.0
        g = np.exp(-(d * d) / (2.0 * sigma * sigma))
        norm = np.sqrt(float(np.sum(basis.mass * g * g)))
        if norm > 0:
            g = g / norm
        cols.append(basis.eigenvectors.T @ (basis.mass * g))
    return np.stack(cols, axis=1)


def fmap_from_landmarks(
    src: SpectralBasis, tgt: SpectralBasis, landmarks: Correspondence, regularizer_weight=0.0
) -> FunctionalMap:
    """Least-squares functional map from sparse landmark pairs.

    Fits C so that C (source descriptors) matches the target descriptors,
    with a Laplacian-commutativity penalty of strength `regularizer_weight`
    (an elementwise (lam_tgt_r - lam_src_c)^2 weight, solved row by row on
    the normal equations with a fixed Tikhonov floor, hence deterministic).
    Fewer landmarks than needed is reported as UnderDeterminedWarning and the
    floored least-norm solution is returned.
    """
    if regularizer_weight < 0:
        raise InvalidArgument("regularizer_weight must be nonnegative")
    pairs = landmarks.pairs
    if pairs.shape[0] < 3 or pairs.shape[0] < src.k:
        warnings.warn(
            f"{pairs.shape[0]} landmarks under-determine a {tgt.k}x{src.k} map",
            UnderDeterminedWarning,
            stacklevel=2,
        )
    A = _landmark_descriptors(src, pairs[:, 0])  # (k_src, p)
    B = _landmark_descriptors(tgt, pairs[:, 1])  # (k_tgt, p)
    AAt = A @ A.T
    scale = max(float(np.trace(AAt)) / max(A.shape[0], 1), 1e-30)
    lam_s, lam_t = src.eigenvalues, tgt.eigenvalues
    C = np.empty((tgt.k, src.k))
    eye = np.eye(src.k)
    for r in range(tgt.k):
        penalty = regularizer_weight * (lam_t[r] - lam_s) ** 2
        lhs = AAt + np.diag(penalty) + TIKHONOV_FLOOR * scale * eye
        C[r] = np.linalg.solve(lhs, A @ B[r])
    return FunctionalMap(C, src.shape_id, tgt.shape_id)


def _pinv_diag(eigenvalues, rel_tol=PINV_REL_TOL):
    lam = np.asarray(eigenvalues, dtype=np.float64)
    tol = rel_tol * max(float(np.max(lam)), 0.0)
    inv = np.zeros_like(lam)
    keep = lam > tol
    inv[keep] = 1.0 / lam[keep]
    return inv


def _restore_zero_mode(D, value=1.0):
    """Overwrite the first row/column with value * e1.

    The pseudo-inverse of the spectrum zeroes the constant-mode row of a
    conformal difference; restoring it makes an isometry map to the exact
    identity operator (scaled by `value` for averaged variants).
    """
    D = D.copy()
    D[0, :] = 0.0
    D[:, 0] = 0.0
    D[0, 0] = value
    return D


def _difference_matrix(Y, kind, base_eigs, eigs, scale=1.0, zero_mode=1.0):
    """area scale * Y^T Y, or conformal scale * pinv(Lambda_base) Y^T Lambda Y
    with the constant mode restored to `zero_mode`. Y maps base-basis
    coefficients into the basis whose spectrum is `eigs`."""
    if kind == "area":
        return scale * (Y.T @ Y)
    if kind == "conformal":
        eigs = np.asarray(eigs, dtype=np.float64)
        D = scale * (_pinv_diag(base_eigs)[:, None] * (Y.T @ (eigs[:, None] * Y)))
        return _restore_zero_mode(D, zero_mode)
    raise InvalidArgument(f"unknown difference kind {kind!r}")


def pair_difference(cmap: FunctionalMap, eigs_source, eigs_target, kind="area") -> PairDifference:
    """Difference operator of one map: area C^T C, or conformal
    pinv(Lambda_src) C^T Lambda_tgt C with the constant mode restored."""
    C = cmap.matrix
    eigs_source = np.asarray(eigs_source, dtype=np.float64)
    eigs_target = np.asarray(eigs_target, dtype=np.float64)
    if C.shape != (eigs_target.size, eigs_source.size):
        raise DimensionMismatch(
            f"map is {C.shape}, spectra are {eigs_target.size}x{eigs_source.size}"
        )
    D = _difference_matrix(C, kind, eigs_source, eigs_target)
    return PairDifference(D, kind, cmap.source_id, cmap.target_id)


def correspondence_path(directory, src_id, tgt_id):
    return os.path.join(directory, f"{src_id}__{tgt_id}.txt")
