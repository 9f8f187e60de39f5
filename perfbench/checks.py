"""Output checks and the well-posedness guard.

Checks read the artifacts a command wrote and compare them with

- oracles recomputed here: per-shape eigenvalues from the guard's own
  eigensolve of each input mesh, and, from the stored operators, the latent
  spectrum (from the stored Y_i and Lambda_i), the variability objective
  (from the stored D_i), descriptors as eigenvalues of D_i and the
  operator-algebra results, and
- for build-many-shapes, whose synth family does not depend on the seed,
  reference invariants recorded from the seed commit (`reference.json`).

Every compared quantity is invariant to rotations and signs of the latent
basis, and comparisons use tolerances, so a solver change at rounding level
passes while a changed result does not.
"""

import json
import os
import re

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as sla

from lskit.matio import read_matrix
from lskit.meshes import load_mesh
from lskit.spectral import metric_measure

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

# A chosen k or m is rejected when the next eigenvalue is less than this far
# above it, relative to the next eigenvalue: the tolerance under which lskit
# itself treats adjacent eigenvalues as one cluster, so the cut would split
# a cluster. The gaps actually found are reported with every run.
GAP_MIN = 1e-8
ORACLE_RTOL = 1e-8  # recomputed from the same stored operators
REFERENCE_RTOL = 1e-6  # against the seed commit: solver changes move rounding only
LOCALIZATION_FLOOR = 0.60  # acceptance criterion 04
DESCRIPTOR_SAMPLE = 12  # shapes per workload whose descriptors are recorded


# workloads whose synth family ignores the seed, so one record serves every seed
REFERENCED = ("build-many-shapes",)


def reference(workload):
    if workload not in REFERENCED or not os.path.isfile(REFERENCE):
        return None
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh).get(workload)


def _manifest(ws):
    with open(os.path.join(ws, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _read(ws, rel):
    return read_matrix(os.path.join(ws, rel))


def _diffs(ws, kind="area"):
    files = _manifest(ws)["diffs"]["files"][kind]
    return {sid: _read(ws, rel) for sid, rel in sorted(files.items())}


def _close(actual, expected, rtol, what):
    actual, expected = np.asarray(actual, float), np.asarray(expected, float)
    if actual.shape != expected.shape:
        return [f"{what}: shape {actual.shape}, expected {expected.shape}"]
    scale = max(1.0, float(np.max(np.abs(expected)))) if expected.size else 1.0
    err = float(np.max(np.abs(actual - expected))) if expected.size else 0.0
    return [] if err <= rtol * scale else [f"{what}: off by {err:.3e} (scale {scale:.3e})"]


# ---------------------------------------------------------------------------
# well-posedness guard


def _smallest(A, M, count):
    """`count` smallest eigenvalues of the pencil (A, M); M diagonal or None."""
    n = A.shape[0]
    if n <= 2000:
        dense = A.toarray() if sparse.issparse(A) else np.asarray(A)
        if M is not None:
            s = 1.0 / np.sqrt(M)
            dense = dense * s[:, None] * s[None, :]
        return scipy.linalg.eigvalsh(0.5 * (dense + dense.T), subset_by_index=(0, count - 1))
    scale = max(float(np.mean(A.diagonal())), 1.0)
    mass = None if M is None else sparse.diags(M).tocsc()
    lam = sla.eigsh(A.tocsc(), k=count, M=mass, sigma=-1e-8 * scale, which="LM",
                    v0=np.full(n, 1.0 / np.sqrt(n)), return_eigenvectors=False)
    return np.sort(lam)


def _gap(lam, cut):
    return float((lam[cut] - lam[cut - 1]) / lam[cut])


def k_gap(k, *dirs):
    """Relative gap between eigenvalues k and k+1 of every mesh in `dirs`,
    and each mesh's k smallest eigenvalues (the oracle of `spectra_outputs`)."""
    worst = (np.inf, None)
    eigenvalues = {}
    for path in sorted(os.path.join(d, f) for d in dirs for f in os.listdir(d) if f.endswith(".off")):
        mm = metric_measure(load_mesh(path))
        lam = _smallest(mm.stiffness, mm.mass_diag, k + 1)
        sid = os.path.basename(path)[:-4]
        eigenvalues[sid] = lam[:k]
        worst = min(worst, (_gap(lam, k), sid))
    guard = {"k": k, "min_rel_gap": worst[0], "at": worst[1], "ok": bool(worst[0] >= GAP_MIN)}
    return guard, eigenvalues


def _consistency_form(ws, man, nodes):
    """sum over directed edges inside `nodes` of ||C_ij Y_i - Y_j||^2 as a
    matrix, assembled here from the stored maps."""
    pos = {sid: idx for idx, sid in enumerate(nodes)}
    blocks = {}
    for src, tgt, rel in man["fmn"]["edges"]:
        if src in pos and tgt in pos:
            C = _read(ws, rel)  # (k_tgt, k_src)
            i, j = pos[src], pos[tgt]
            for key, block in (((i, i), C.T @ C), ((j, j), np.eye(C.shape[0])), ((i, j), -C.T), ((j, i), -C)):
                blocks[key] = blocks.get(key, 0) + block
    grid = [[None] * len(nodes) for _ in nodes]
    for (a, b), block in blocks.items():
        grid[a][b] = sparse.coo_matrix(block)
    return sparse.bmat(grid, format="csr")


def m_gap(ws, m, clusters=()):
    """Relative gap between eigenvalues m and m+1 of the consistency form of
    the whole network and of each cluster's sub-network (`ops align` solves
    one latent basis per cluster)."""
    man = _manifest(ws)
    worst = (np.inf, None)
    for label, nodes in [("all", man["fmn"]["nodes"])] + list(clusters):
        gap = _gap(_smallest(_consistency_form(ws, man, nodes), None, m + 1), m)
        worst = min(worst, (gap, label))
    return {"m": m, "min_rel_gap": worst[0], "at": worst[1], "ok": bool(worst[0] >= GAP_MIN)}


# ---------------------------------------------------------------------------
# artifacts of the pipeline commands


def spectra_outputs(ws, eigenvalues):
    """Stored eigenvalues of every shape against the guard's own eigensolve."""
    shapes = _manifest(ws)["shapes"]
    if set(shapes) - set(eigenvalues):
        return [f"no oracle for {sorted(set(shapes) - set(eigenvalues))}"]
    problems = []
    for sid, entry in sorted(shapes.items()):
        lam = _read(ws, entry["files"]["lam"])[:, 0]
        problems += _close(lam, eigenvalues[sid], ORACLE_RTOL, f"eigenvalues of {sid}")
    return problems[:3]


def invariants(ws, mode):
    """Rotation- and sign-invariant results of a built workspace."""
    man = _manifest(ws)
    with open(os.path.join(ws, "variability", f"{mode}.json"), encoding="utf-8") as fh:
        top = json.load(fh)["functions"][0]["eigenvalue"]
    with open(os.path.join(ws, "ops", "descriptors.area.json"), encoding="utf-8") as fh:
        desc = json.load(fh)
    ids = sorted(desc)
    keep = ids[:: max(1, len(ids) // DESCRIPTOR_SAMPLE)]
    return {
        "lambda0": _read(ws, man["latent"]["lambda0"])[:, 0].tolist(),
        "top_eigenvalue": top,
        "descriptors": {sid: desc[sid] for sid in keep},
    }


def latent_outputs(ws, ref):
    """Stored latent spectrum against its definition, and the seed's."""
    man = _manifest(ws)
    lam0 = _read(ws, man["latent"]["lambda0"])[:, 0]
    m = lam0.size
    E, S = np.zeros((m, m)), np.zeros((m, m))
    for sid, rel in man["latent"]["Y"].items():
        Y = _read(ws, rel)
        lam = _read(ws, man["shapes"][sid]["files"]["lam"])[:, 0]
        E += Y.T @ (lam[:, None] * Y)
        S += Y.T @ Y
    problems = _close(np.linalg.eigvalsh(0.5 * (E + E.T)), lam0, ORACLE_RTOL, "lambda0 vs eig(sum Y^T Lambda Y)")
    problems += _close(S, np.eye(m), ORACLE_RTOL, "sum Y^T Y vs identity")
    if ref:
        problems += _close(lam0, ref["lambda0"], REFERENCE_RTOL, "lambda0 vs reference")
    return problems


def _partition(truth):
    with open(truth, encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc, doc["partition"]["cluster_a"], doc["partition"]["cluster_b"]


def _objective(diffs, mode, truth=None):
    """Top eigenvalue of the global or cross-collection objective."""
    def pair_sum(ids_a, ids_b=None):
        mats = np.stack([diffs[s] for s in ids_a])
        if ids_b is None:  # unordered pairs inside one group, in closed form
            S = mats.sum(axis=0)
            return len(ids_a) * np.einsum("nij,nik->jk", mats, mats) - S.T @ S
        other = np.stack([diffs[s] for s in ids_b])
        Sa, Sb = mats.sum(axis=0), other.sum(axis=0)
        return (len(ids_b) * np.einsum("nij,nik->jk", mats, mats)
                + len(ids_a) * np.einsum("nij,nik->jk", other, other) - Sa.T @ Sb - Sb.T @ Sa)

    if mode == "global":
        Q = pair_sum(sorted(diffs))
    else:
        _, a, b = _partition(truth)
        Q = pair_sum(a, b) - pair_sum(a) - pair_sum(b)
    return float(np.linalg.eigvalsh(0.5 * (Q + Q.T))[-1])


def variability_outputs(ws, mode, truth, ref, region=None):
    with open(os.path.join(ws, "variability", f"{mode}.json"), encoding="utf-8") as fh:
        top = json.load(fh)["functions"][0]["eigenvalue"]
    problems = _close(top, _objective(_diffs(ws), mode, truth), ORACLE_RTOL, f"{mode} top eigenvalue vs objective")
    if ref:
        problems += _close(top, ref["top_eigenvalue"], REFERENCE_RTOL, f"{mode} top eigenvalue vs reference")
    fields = os.path.join(ws, "fields", f"{mode}.json")
    if os.path.isfile(fields):
        problems += _fields(ws, fields, truth, region)
    return problems


def _fields(ws, bundle_path, truth, region):
    """Every member has a field; given the vertices where the clusters
    differ, the cross field keeps most of its mass there."""
    with open(bundle_path, encoding="utf-8") as fh:
        bundle = json.load(fh)
    _, a, b = _partition(truth)
    missing = sorted((set(a) | set(b)) - set(bundle["shapes"]))
    if missing:
        return [f"no field for {missing}"]
    if region is None:
        return []
    inside = total = 0.0
    for entry in bundle["shapes"].values():
        f = np.loadtxt(os.path.join(ws, entry["field"]), usecols=1)
        inside += float(np.sum(f[region] ** 2))
        total += float(np.sum(f ** 2))
    share = inside / total
    return [] if share >= LOCALIZATION_FLOOR else [f"cross field mass in the cluster region {share:.3f} < 0.60"]


def descriptor_outputs(ws, ref):
    with open(os.path.join(ws, "ops", "descriptors.area.json"), encoding="utf-8") as fh:
        desc = json.load(fh)
    diffs = _diffs(ws)
    if sorted(desc) != sorted(diffs):
        return ["descriptors do not cover the stored differences"]
    problems = []
    for sid, D in diffs.items():
        problems += _close(desc[sid], np.linalg.eigvalsh(0.5 * (D + D.T)), ORACLE_RTOL, f"descriptor {sid}")
    if ref:
        for sid, values in ref["descriptors"].items():
            problems += _close(desc.get(sid, []), values, REFERENCE_RTOL, f"descriptor {sid} vs reference")
    return problems[:3]


# ---------------------------------------------------------------------------
# queries


def _op_result(ws, name):
    return _read(ws, os.path.join("ops", f"{name}.area.lsk"))


def light_query(argv, command, ws):
    action = argv[1] if argv[0] == "ops" else argv[0]
    if action == "spectra":
        return [] if "up to date" in command.stdout else ["spectra rerun recomputed shapes"]
    if action == "variability":
        return variability_outputs(ws, "global", None, None)
    if action == "descriptors":
        return descriptor_outputs(ws, None)
    d = _diffs(ws)
    if action == "analogy":
        a, b, c = argv[2:5]
        want = d[b] @ np.linalg.solve(d[a], d[c])
        return _close(_op_result(ws, f"analogy_{a}_{b}_{c}"), want, ORACLE_RTOL, "analogy")
    if action == "interp":
        a, b = argv[2:4]
        return _close(_op_result(ws, f"interp_{a}_{b}_t0.5"), 0.5 * (d[a] + d[b]), ORACLE_RTOL, "interp")
    return [f"no check for {action}"]


def query(argv, command, ws, truth):
    if argv[0] == "variability" and "--emit-fields" in argv:
        return variability_outputs(ws, "cross", truth, None)
    if argv[0] == "extend":
        man = _manifest(ws)
        ext = man["latent"]["extended"].get("x0")
        if not ext:
            return ["extend did not record x0"]
        Y = _read(ws, ext["Y"])
        return _close(_read(ws, ext["diffs"]["area"]), Y.T @ Y, ORACLE_RTOL, "extended area operator")
    if argv[:2] == ["ops", "mix"]:
        a, b = argv[2:4]
        with open(os.path.join(ws, "ops", f"mix_{a}_{b}.area.json"), encoding="utf-8") as fh:
            F = np.asarray(json.load(fh)["operands"]["F"])
        d = _diffs(ws)
        P = F @ F.T
        want = d[a] @ (np.eye(P.shape[0]) - P) + d[b] @ P
        return _close(_op_result(ws, f"mix_{a}_{b}"), want, ORACLE_RTOL, "mix")
    if argv[:2] == ["ops", "align"]:
        hit = re.search(r"accuracy vs ground truth: (\d+)/(\d+)", command.stdout)
        if not hit or hit.group(1) != hit.group(2):
            return [f"align paired {hit.group(0) if hit else 'nothing'}"]
        return []
    return light_query(argv, command, ws)
