"""lskit: latent-shape representation of triangle-mesh collections.

Pipeline: per-shape spectral geometry -> functional map network ->
consistent latent basis (canonicalized) -> per-shape difference operators ->
variability analysis, retrieval descriptors and operator algebra.
"""

__version__ = "0.1.0"  # the only copy: matio and pyproject.toml read it

from .errors import LskitError
from .fmaps import (
    Correspondence,
    FunctionalMap,
    PairDifference,
    fmap_from_correspondence,
    fmap_from_landmarks,
    identity_correspondence,
    pair_difference,
)
from .latent import (
    ConsistentLatentBasis,
    LatentDifference,
    LatentShape,
    canonicalize,
    consistent_latent_basis,
    extend_to_shape,
    latent_differences,
    nearest_member,
    stability_probe,
)
from .meshes import Mesh, load_mesh, save_off, validate_mesh
from .network import (
    FMNetwork,
    attach_maps,
    build_topology,
    consistency_report,
    identity_map_provider,
    two_cluster_topology,
)
from .opalg import (
    OperatorExpression,
    align_by_descriptor,
    analogy,
    interpolate,
    localized_basis,
    lssd_spectrum_descriptor,
    partial_mix,
)
from .spectral import (
    MetricMeasure,
    SpectralBasis,
    compute_shape,
    eigenbasis,
    metric_measure,
    shape_dna,
)
from .synth import (
    chain_family,
    icosphere,
    perturbation_family,
    sphere_bump_family,
    two_cluster_family,
)
from .variability import (
    DistinctiveFunction,
    Partition,
    ProjectionBasis,
    cross_collection_variability,
    delta,
    global_variability,
    adjoint_energy_commutativity_check,
    project_difference,
    separation_embedding,
    transfer_to_shape,
)
