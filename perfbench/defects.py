"""Shows two known defects of `lskit.spectral.eigenbasis` on a plain sphere.

    python3 perfbench/defects.py   # exit code 1 while a defect shows

Shape b0 of the sphere-bump family is a plain subdivision-5 icosphere (10242
vertices, the shift-invert path). Its spectrum comes in exactly degenerate
multiplets, and at each band edge tried here one of the defects shows:

- at the band edges k=25 and k=36 the eigenvalues are right, but a
  SpectralGapWarning claims that k splits a cluster (defect 1 in NOTES.md);
- at the band edge k=49 no warning is raised, but one of the five copies of
  41.849 is missing and 55.710 of the next band comes back as the 49th
  eigenvalue (defect 3).

The reference is this benchmark's own solve of k + 1 eigenvalues
(`checks._smallest`). The benchmark's large-mesh workload uses the
two-cluster family, whose members all carry a bump, so that its operations
succeed; this script keeps the defects in view until they are fixed.
"""

import os
import sys
import warnings

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import checks  # noqa: E402
from lskit import spectral, synth  # noqa: E402
from lskit.errors import SpectralGapWarning  # noqa: E402


def main():
    b0 = next(m for m in synth.sphere_bump_family(n_per_cluster=3, subdivisions=5).meshes if m.shape_id == "b0")
    mm = spectral.metric_measure(b0)
    shown = 0
    for k in (25, 36, 49):
        want = checks._smallest(mm.stiffness, mm.mass_diag, k + 1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = spectral.eigenbasis(mm, k).eigenvalues
        warned = any(issubclass(w.category, SpectralGapWarning) for w in caught)
        wrong = checks._close(got, want[:k], checks.ORACLE_RTOL, f"eigenvalues at k={k}")
        gap = checks._gap(want, k)
        print(f"k={k}: gap to k+1 {gap:.3f}, SpectralGapWarning {'raised' if warned else 'not raised'}, "
              f"{wrong[0] if wrong else 'eigenvalues right'}")
        shown += warned or bool(wrong)
    return 1 if shown else 0


if __name__ == "__main__":
    sys.exit(main())
