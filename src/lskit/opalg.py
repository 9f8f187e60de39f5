"""Operator-level shape synthesis: analogies, interpolation, localized mixing,
and spectrum descriptors for alignment.

Every synthesis op returns an OperatorExpression whose recipe records the
formula and the operand matrices, so re-running `replay` reproduces the result
bit for bit.
"""

import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import EmptyRegion, IllConditioned, InvalidArgument, UnknownShape
from .latent import ConsistentLatentBasis, LatentDifference, LatentShape
from .spectral import CLUSTER_GAP_TOL, SpectralBasis
from .variability import ProjectionBasis, _as_F, _as_matrix

CONDITION_LIMIT = 1e8


@dataclass(frozen=True)
class OperatorExpression:
    """Synthesized m x m operator plus the recipe that produced it."""

    result: np.ndarray
    recipe: dict


def _operand(D):
    return np.array(_as_matrix(D), dtype=np.float64, copy=True)


def analogy(D_A, D_B, D_C) -> OperatorExpression:
    """Operator completing the analogy "is to C what B is to A":
    D_B A^{-1} D_C, computed with a linear solve, never an explicit inverse."""
    A, B, C = _operand(D_A), _operand(D_B), _operand(D_C)
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise IllConditioned(f"analogy base operator has condition number {cond:.3e}")
    result = B @ np.linalg.solve(A, C)
    recipe = {
        "op": "analogy",
        "operands": {"A": A, "B": B, "C": C},
        "condition": float(cond),
    }
    return OperatorExpression(result, recipe)


def interpolate(D_A, D_B, t) -> OperatorExpression:
    """Convex combination (1 - t) A + t B; endpoints returned exactly."""
    if not 0.0 <= t <= 1.0:
        raise InvalidArgument(f"t={t} outside [0, 1]")
    A, B = _operand(D_A), _operand(D_B)
    if A.shape != B.shape:
        raise InvalidArgument(f"operand shapes differ: {A.shape} vs {B.shape}")
    if t == 0.0:
        result = A.copy()
    elif t == 1.0:
        result = B.copy()
    else:
        result = (1.0 - t) * A + t * B
    return OperatorExpression(result, {"op": "interpolate", "t": float(t), "operands": {"A": A, "B": B}})


def partial_mix(D_A, D_B, F) -> OperatorExpression:
    """D_A (I - F F^T) + D_B F F^T: route span(F) through D_B, the rest
    through D_A. With D_B = I this is the projected difference."""
    A, B = _operand(D_A), _operand(D_B)
    Fm = _as_F(F, A.shape[0])
    if Fm.shape[1] == 0:
        result = A.copy()
    else:
        FFt = Fm @ Fm.T
        result = A @ (np.eye(A.shape[0]) - FFt) + B @ FFt
    return OperatorExpression(result, {"op": "partial_mix", "operands": {"A": A, "B": B, "F": Fm.copy()}})


def replay(recipe) -> OperatorExpression:
    """Recompute an expression from its recipe (bit-identical by construction)."""
    ops = recipe["operands"]
    if recipe["op"] == "analogy":
        return analogy(ops["A"], ops["B"], ops["C"])
    if recipe["op"] == "interpolate":
        return interpolate(ops["A"], ops["B"], recipe["t"])
    if recipe["op"] == "partial_mix":
        return partial_mix(ops["A"], ops["B"], ops["F"])
    raise InvalidArgument(f"unknown recipe op {recipe.get('op')!r}")


CONCENTRATION_CUTOFF = 0.5  # keep latent modes with most of their mass inside


def localized_basis(
    latent: LatentShape, clb: ConsistentLatentBasis, shape: SpectralBasis, region, p=None
) -> ProjectionBasis:
    """Latent functions supported on a vertex region of one member shape.

    Solves the concentration problem in latent coordinates: with
    G = Phi_i Y_i, maximize the in-region mass ratio
    (alpha^T G^T M_S G alpha) / (alpha^T G^T M G alpha), where M_S restricts
    the vertex areas to the region. The top generalized eigenvectors are the
    latent functions most supported on the region; only modes holding at
    least CONCENTRATION_CUTOFF of their mass inside are kept (at most p,
    default min(10, m), at least one). Fully degenerate concentration levels
    (e.g. region = everything) are ordered by latent smoothness, so the
    leading function is always the smoothest available one.
    """
    region = np.asarray(region, dtype=np.int64)
    if region.size == 0:
        raise EmptyRegion("localized basis needs a nonempty vertex region")
    if shape.shape_id not in clb.Y:
        raise UnknownShape(f"shape {shape.shape_id!r} has no latent basis")
    if region.min() < 0 or region.max() >= shape.num_vertices:
        raise InvalidArgument("region index out of range")
    m = clb.m
    if p is None:
        p = min(10, m)
    p = min(p, m)

    sel = np.zeros(shape.num_vertices)
    sel[region] = 1.0
    G = shape.eigenvectors @ clb.Y[shape.shape_id]
    A = G.T @ ((shape.mass * sel)[:, None] * G)
    B = G.T @ (shape.mass[:, None] * G)
    mu, U = scipy.linalg.eigh(0.5 * (A + A.T), 0.5 * (B + B.T))
    mu, U = mu[::-1], U[:, ::-1]  # concentration ratio, descending

    # break exact concentration ties by latent smoothness (ascending spectrum)
    lam0 = latent.spectrum
    start = 0
    for stop in range(1, m + 1):
        if stop == m or mu[start] - mu[stop] > CLUSTER_GAP_TOL:
            if stop - start > 1:
                block = U[:, start:stop]
                E = block.T @ (lam0[:, None] * block)
                _, R = scipy.linalg.eigh(0.5 * (E + E.T))
                U[:, start:stop] = block @ R
            start = stop

    keep = max(1, min(p, int(np.sum(mu >= CONCENTRATION_CUTOFF))))
    F, _ = np.linalg.qr(U[:, :keep])
    return ProjectionBasis(
        F, f"{keep} modes concentrated on {region.size} vertices of {shape.shape_id!r}"
    )


def lssd_spectrum_descriptor(D) -> np.ndarray:
    """Ascending eigenvalues of a difference operator, as a retrieval
    descriptor; of a sequence of operators of one size, their descriptors as
    the rows of one array, from one stacked eigensolve. Non-symmetric
    (conformal) operators are symmetrized first."""
    many = isinstance(D, Sequence)
    mats = []
    for op in D if many else [D]:
        mat = _as_matrix(op)
        asym = float(np.max(np.abs(mat - mat.T)))
        if asym > 1e-12 * max(1.0, float(np.max(np.abs(mat)))):
            if isinstance(op, LatentDifference) and op.kind == "area":
                warnings.warn("area operator unexpectedly asymmetric; symmetrizing", stacklevel=2)
            mat = 0.5 * (mat + mat.T)
        mats.append(mat)
    eigs = np.linalg.eigvalsh(np.stack(mats))
    return eigs if many else eigs[0]


def align_by_descriptor(descs_a: dict, descs_b: dict):
    """1-nearest-neighbor pairing from cluster a to cluster b by descriptor
    distance. Returns {id_a: id_b}; ties break by id order."""
    ids_b = sorted(descs_b)
    out = {}
    for ida in sorted(descs_a):
        da = descs_a[ida]
        dists = [float(np.linalg.norm(da - descs_b[idb])) for idb in ids_b]
        out[ida] = ids_b[int(np.argmin(dists))]
    return out
