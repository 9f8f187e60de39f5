"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Thresholds that came from pilot measurements are recorded in
tests/pilot_thresholds.json next to the measured values.
"""

import json
import os
import time
import warnings

import numpy as np
import pytest

from helpers import (
    full_info_family,
    identity_net,
    landmark_net,
    mean_shape_oracle,
    polygon_is_simple,
    random_orthonormal,
    random_spd,
)
from lskit.cli import main as cli_main
from lskit.errors import SpectralGapWarning
from lskit.fmaps import pair_difference
from lskit.latent import (
    canonicalize,
    consistent_latent_basis,
    latent_differences,
    stability_probe,
)
from lskit.matio import read_matrix
from lskit.meshes import apply_rigid, permute_vertices, random_rotation, save_off
from lskit.opalg import analogy, interpolate, lssd_spectrum_descriptor, partial_mix
from lskit.spectral import compute_shape
from lskit.synth import (
    chain_family,
    perturbation_family,
    sphere_bump_family,
    sphere_bump_ground_truth,
    two_cluster_family,
    write_family,
)
from lskit.variability import (
    Partition,
    cross_collection_variability,
    delta,
    global_variability,
    adjoint_energy_commutativity_check,
    project_difference,
    transfer_to_shape,
)


def report(number, name, ok, detail, elapsed, limit):
    status = "PASS" if ok and elapsed <= limit else "FAIL"
    print(f"[acceptance] criterion {number:2d} ({name}): {status} — {detail} [{elapsed:.1f}s / limit {limit:.0f}s]")
    assert ok, f"criterion {number} ({name}): {detail}"
    assert elapsed <= limit, f"criterion {number} exceeded runtime limit: {elapsed:.1f}s > {limit}s"


def test_criterion_01_mean_shape_oracle_equivalence():
    t0 = time.perf_counter()
    fam = sphere_bump_family()  # 4 deformed icospheres, 642 vertices
    n = fam.meshes[0].num_vertices
    shapes = [compute_shape(m, n) for m in fam.meshes]  # full bases
    net = identity_net(shapes)
    clb = consistent_latent_basis(net, n)
    can, lat = canonicalize(clb, net.spectra())
    lam_o, phi_o, Mbar = mean_shape_oracle(shapes)

    spec_err = float(np.abs(lat.spectrum - lam_o).max() / lam_o.max())
    phi0 = shapes[0].basis.eigenvectors @ can.Y[shapes[0].shape_id]
    phi0 = phi0 * np.sqrt(len(shapes))  # sum(M) vs mean(M) normalization
    num = np.abs(np.einsum("vi,v,vi->i", phi0, Mbar, phi_o))
    den = np.sqrt(
        np.einsum("vi,v,vi->i", phi0, Mbar, phi0) * np.einsum("vi,v,vi->i", phi_o, Mbar, phi_o)
    )
    cos = num / den
    gaps = np.minimum(np.diff(lam_o, prepend=-np.inf), np.diff(lam_o, append=np.inf))
    outside = gaps > 1e-5 * lam_o.max()
    min_cos = float(cos[outside].min())

    elapsed = time.perf_counter() - t0
    ok = spec_err <= 1e-6 and min_cos >= 1.0 - 1e-6
    report(
        1,
        "latent spectrum/basis vs averaged-geometry oracle",
        ok,
        f"spectrum rel err {spec_err:.2e} (≤1e-6), worst cosine {min_cos:.9f} "
        f"(≥1-1e-6, {int(outside.sum())}/{n} columns outside clusters)",
        elapsed,
        60.0,
    )


def test_criterion_02_projection_gain_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_rel, most_negative = 0.0, 0.0
    per_m = 200 // 3 + 1
    for m in (5, 20, 40):
        for _ in range(per_m):
            D_i, D_j = random_spd(rng, m), random_spd(rng, m)
            F = random_orthonormal(rng, m, int(rng.integers(1, m)))
            val = delta(D_i, D_j, F)
            P_i, P_j = project_difference(D_i, F), project_difference(D_j, F)
            frob = np.linalg.norm(D_i - D_j, "fro") ** 2 - np.linalg.norm(P_i - P_j, "fro") ** 2
            worst_rel = max(worst_rel, abs(val - frob) / max(abs(frob), 1.0))
            most_negative = min(most_negative, val)
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-10 and most_negative >= -1e-12
    report(
        2,
        "quadratic form equals Frobenius-drop definition",
        ok,
        f"worst rel dev {worst_rel:.2e} (≤1e-10), min value {most_negative:.2e} (≥-1e-12), "
        f"{3 * per_m} instances",
        elapsed,
        5.0,
    )


def test_criterion_03_canonicalization_stability_ordering():
    t0 = time.perf_counter()
    results = []
    for seed in range(5):
        fam = perturbation_family(seed=seed, count=5, spread=0.2)
        shapes = [compute_shape(m, 20) for m in fam.meshes]
        net = landmark_net(shapes, stride=4, weight=1e-2)
        probe = stability_probe(net, "s4", m=10)
        results.append((probe.r_standard, probe.r_canonical))
    elapsed = time.perf_counter() - t0
    ok = all(rc >= rs and rc >= 0.9 for rs, rc in results)
    detail = "; ".join(f"seed {i}: std {rs:.3f} canon {rc:.3f}" for i, (rs, rc) in enumerate(results))
    report(3, "canonical basis stability ordering", ok, detail, elapsed, 120.0)


def test_criterion_04_cross_collection_localization():
    t0 = time.perf_counter()
    fam = sphere_bump_family()
    # k=81 closes the band of the plain sphere b0 that k=80 would split, so
    # every basis (and the latent basis at m=40) is well-posed
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", SpectralGapWarning)
        shapes = {m.shape_id: compute_shape(m, 81) for m in fam.meshes}
        order = [m.shape_id for m in fam.meshes]
        net = identity_net([shapes[i] for i in order])
        clb = consistent_latent_basis(net, 40)
    assert not [w for w in caught if issubclass(w.category, SpectralGapWarning)]
    can, lat = canonicalize(clb, net.spectra())
    diffs = latent_differences(can, net.spectra(), lat, "area")
    top_global = global_variability(diffs, 1)[0]
    top_cross = cross_collection_variability(
        diffs, Partition(fam.cluster_a, fam.cluster_b), 1
    )[0]

    def region_fraction(alpha, region):
        inside = total = 0.0
        for sid in order:
            f, _ = transfer_to_shape(alpha, shapes[sid], can.Y[sid])
            inside += float(np.sum(f[region] ** 2))
            total += float(np.sum(f**2))
        return inside / total

    frac_global = region_fraction(top_global, fam.horizontal_region)
    frac_cross = region_fraction(top_cross, fam.vertical_region)
    elapsed = time.perf_counter() - t0
    ok = frac_global >= 0.60 and frac_cross >= 0.60
    report(
        4,
        "global/cross distinctive functions localize on their bumps",
        ok,
        f"global mass in horizontal-bump region {frac_global:.1%} (≥60%), "
        f"cross mass in vertical-bump region {frac_cross:.1%} (≥60%)",
        elapsed,
        120.0,
    )


def test_criterion_05_base_free_alignment():
    t0 = time.perf_counter()
    fam = two_cluster_family()  # defaults
    shapes = {m.shape_id: compute_shape(m, 50) for m in fam.meshes}
    descs = {}
    for label in (0, 1):
        ids = fam.cluster_ids(label)
        members = [shapes[i] for i in ids]  # no cross-cluster maps anywhere
        net = identity_net(members, "mst")
        clb = consistent_latent_basis(net, 20)
        can, lat = canonicalize(clb, net.spectra())
        diffs = latent_differences(can, net.spectra(), lat, "area", normalized=True)
        descs[label] = {sid: lssd_spectrum_descriptor(D) for sid, D in diffs.items()}
    from lskit.opalg import align_by_descriptor

    pairing = align_by_descriptor(descs[0], descs[1])
    truth = dict(fam.pairing)
    accuracy = float(np.mean([pairing[a] == b for a, b in truth.items()]))
    elapsed = time.perf_counter() - t0
    ok = accuracy == 1.0
    report(
        5,
        "descriptor alignment across unmapped clusters",
        ok,
        f"1-NN pairing accuracy {accuracy:.0%} over {len(truth)} pairs (requires 100%)",
        elapsed,
        120.0,
    )


def test_criterion_06_chain_topology_loop():
    t0 = time.perf_counter()
    fam = chain_family(23, cycle=True)
    shapes = [compute_shape(m, 50) for m in fam.meshes]
    net = identity_net(shapes, "chain", order=list(range(23)))
    clb = consistent_latent_basis(net, 20)
    can, lat = canonicalize(clb, net.spectra())
    diffs = latent_differences(can, net.spectra(), lat, "area", normalized=True)
    X = np.stack([diffs[m.shape_id].matrix.ravel() for m in fam.meshes])
    Xc = X - X.mean(axis=0)
    _, _, vt = np.linalg.svd(Xc, full_matrices=False)
    P = Xc @ vt[:2].T
    steps = np.linalg.norm(np.diff(P, axis=0), axis=1)
    closing_gap = float(np.linalg.norm(P[-1] - P[0]))
    ratio = closing_gap / float(np.median(steps))
    simple = polygon_is_simple(P)
    elapsed = time.perf_counter() - t0
    ok = simple and ratio <= 1.5
    report(
        6,
        "chain-only maps embed as a closed loop",
        ok,
        f"polygon simple: {simple}, closing gap / median step {ratio:.2f} (≤1.5)",
        elapsed,
        120.0,
    )


def test_criterion_07_functoriality():
    t0 = time.perf_counter()
    shapes, net = full_info_family(subdivisions=1, count=3)
    n = shapes[0].mesh.num_vertices
    clb = consistent_latent_basis(net, n)
    can, lat = canonicalize(clb, net.spectra())
    diffs = latent_differences(can, net.spectra(), lat, "area")
    worst = 0.0
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            si, sj = f"s{i}", f"s{j}"
            direct = pair_difference(
                net.edges[(si, sj)],
                net.shape(si).basis.eigenvalues,
                net.shape(sj).basis.eigenvalues,
                "area",
            ).matrix
            Yi = can.Y[si]
            factored = Yi @ np.linalg.solve(diffs[si].matrix, diffs[sj].matrix) @ np.linalg.inv(Yi)
            worst = max(
                worst, np.linalg.norm(direct - factored, "fro") / np.linalg.norm(direct, "fro")
            )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6
    report(
        7,
        "pairwise difference factors through the latent shape",
        ok,
        f"worst relative Frobenius error {worst:.2e} (≤1e-6) over 6 directed pairs",
        elapsed,
        30.0,
    )


def test_criterion_08_projection_laws():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(3, 30))
        D = random_spd(rng, m)
        full = random_orthonormal(rng, m)
        worst = max(worst, np.abs(project_difference(D, full) - np.eye(m)).max())
        empty = np.zeros((m, 0))
        worst = max(worst, np.abs(project_difference(D, empty) - D).max())
        F = random_orthonormal(rng, m, int(rng.integers(1, m)))
        alpha = F @ rng.standard_normal(F.shape[1])
        scale = max(1.0, np.abs(alpha).max())
        worst = max(worst, np.abs(project_difference(D, F) @ alpha - alpha).max() / scale)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12
    report(
        8,
        "projection laws (full, empty, on-span identity)",
        ok,
        f"worst deviation {worst:.2e} (≤1e-12) over 100 instances",
        elapsed,
        2.0,
    )


def test_criterion_09_commutativity():
    t0 = time.perf_counter()
    shapes, net = full_info_family(subdivisions=1, count=4)
    n = shapes[0].mesh.num_vertices
    clb = consistent_latent_basis(net, n)
    can, lat = canonicalize(clb, net.spectra())
    diffs = latent_differences(can, net.spectra(), lat, "area")
    worst = adjoint_energy_commutativity_check(diffs, can, {s.shape_id: s for s in shapes})
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6
    report(
        9,
        "squared-difference and adjoint-energy terms commute",
        ok,
        f"worst relative commutator {worst:.2e} (≤1e-6) over all quadruples",
        elapsed,
        60.0,
    )


def test_criterion_10_operator_algebra_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 20))
        A, B, C = random_spd(rng, m), random_spd(rng, m), random_spd(rng, m)
        worst = max(worst, np.abs(analogy(A, A, C).result - C).max())
        worst = max(worst, np.abs(analogy(A, B, A).result - B).max())
        worst = max(worst, np.abs(interpolate(A, B, 0.0).result - A).max())
        worst = max(worst, np.abs(interpolate(A, B, 1.0).result - B).max())
        F = random_orthonormal(rng, m, int(rng.integers(1, m + 1)))
        worst = max(worst, np.abs(partial_mix(A, A, F).result - A).max())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10
    report(
        10,
        "analogy/interpolation/mix identities",
        ok,
        f"worst deviation {worst:.2e} (≤1e-10) over 50 randomized rounds",
        elapsed,
        2.0,
    )


def test_criterion_11_isometry_invariance_extend_pipeline(tmp_path):
    t0 = time.perf_counter()
    fam = sphere_bump_family(subdivisions=2)
    fam_dir = tmp_path / "meshes"
    write_family(fam.meshes, fam_dir, sphere_bump_ground_truth(fam))
    ws = tmp_path / "ws"
    assert cli_main(["spectra", str(fam_dir), "--workspace", str(ws), "--k", "30"]) == 0
    assert cli_main(["fmn", "--workspace", str(ws), "--topology", "clique", "--maps", "identity"]) == 0
    assert cli_main(["latent", "--workspace", str(ws), "--m", "15", "--kind", "area"]) == 0

    rng = np.random.default_rng(19)
    member = fam.meshes[1]  # a1: both bumps present, asymmetric spectrum
    moved = apply_rigid(member, random_rotation(rng), np.array([0.5, -1.0, 2.5]), "twin")
    twin, pairs = permute_vertices(moved, rng.permutation(member.num_vertices), "twin")
    save_off(twin, tmp_path / "twin.off")
    corr_path = tmp_path / "corr.txt"
    with open(corr_path, "w") as fh:
        for s, t in pairs:
            fh.write(f"{s} {t}\n")
    assert cli_main([
        "extend", "--workspace", str(ws), "--mesh", str(tmp_path / "twin.off"),
        "--neighbor", "auto", "--corr", str(corr_path),
    ]) == 0

    manifest = json.loads((ws / "manifest.json").read_text())
    ext = manifest["latent"]["extended"]["twin"]
    twin_area = read_matrix(ws / ext["diffs"]["area"])
    orig_area = read_matrix(ws / manifest["diffs"]["files"]["area"]["a1"])
    op_err = float(np.abs(twin_area - orig_area).max())
    desc_err = float(
        np.abs(lssd_spectrum_descriptor(twin_area) - lssd_spectrum_descriptor(orig_area)).max()
    )
    elapsed = time.perf_counter() - t0
    ok = ext["neighbor"] == "a1" and op_err <= 1e-8 and desc_err <= 1e-8
    report(
        11,
        "rigid+relabels twin matches original through extend",
        ok,
        f"neighbor {ext['neighbor']}, operator err {op_err:.2e}, descriptor err {desc_err:.2e} (≤1e-8)",
        elapsed,
        60.0,
    )


def test_criterion_12_reproducibility(tmp_path):
    t0 = time.perf_counter()

    def run(tag):
        fam_dir = tmp_path / f"meshes_{tag}"
        ws = tmp_path / f"ws_{tag}"
        fam = sphere_bump_family(subdivisions=2)
        write_family(fam.meshes, fam_dir, sphere_bump_ground_truth(fam))
        assert cli_main(["spectra", str(fam_dir), "--workspace", str(ws), "--k", "30"]) == 0
        assert cli_main(["fmn", "--workspace", str(ws), "--topology", "mst", "--maps", "identity"]) == 0
        assert cli_main(["latent", "--workspace", str(ws), "--m", "15", "--kind", "both"]) == 0
        return ws

    ws_a = run("a")
    ws_b = run("b")
    mismatched = []
    paths = []
    for root, _, files in os.walk(ws_a):
        for fname in files:
            if fname.endswith(".lsk") or fname == "manifest.json":
                rel = os.path.relpath(os.path.join(root, fname), ws_a)
                paths.append(rel)
                a = (ws_a / rel).read_bytes()
                b = (ws_b / rel).read_bytes()
                if a != b:
                    mismatched.append(rel)
    elapsed = time.perf_counter() - t0
    ok = not mismatched and len(paths) > 20
    report(
        12,
        "pipeline reproducibility (byte-identical artifacts)",
        ok,
        f"{len(paths)} artifacts compared, {len(mismatched)} mismatches: {mismatched[:4]}",
        elapsed,
        600.0,
    )
