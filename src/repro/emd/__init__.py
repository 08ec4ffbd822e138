"""Earth Mover's Distance between signatures (paper Section 3.2)."""

from .batch import (
    EMD_SOLVERS,
    BandedDistanceMatrix,
    PairwiseEMDEngine,
    band_pair_counts,
    band_pair_indices,
)
from .distance import EMDResult, emd, emd_with_flow
from .ground_distance import (
    GroundDistance,
    chebyshev_cross_distance,
    cross_distance_matrix,
    euclidean_cross_distance,
    manhattan_cross_distance,
    resolve_ground_distance,
    squared_euclidean_cross_distance,
)
from .linprog_backend import solve_emd_linprog
from .linprog_batch import LinprogBatchResult, solve_emd_linprog_batch
from .matrices import EMDCache, cross_emd_matrix, emd_matrix
from .one_dimensional import emd_1d_histograms, partial_emd_1d, wasserstein_1d
from .orchestrator import (
    QUARANTINE_FILENAME,
    InlineWorkerBackend,
    ProcessWorkerBackend,
    QuarantinedPair,
    QuarantineManifest,
    RetryPolicy,
    ShardOrchestrator,
    WorkerCrash,
    WorkerHang,
    compute_backoff,
)
from .sharding import (
    EngineSettings,
    ShardPlan,
    ShardSpec,
    band_fingerprint,
    load_shard_checkpoint,
    merge_shards,
    save_shard_checkpoint,
)
from .transportation import (
    TransportPlan,
    solve_transportation,
    solve_unbalanced_transportation,
)

__all__ = [
    "EMD_SOLVERS",
    "BandedDistanceMatrix",
    "PairwiseEMDEngine",
    "band_pair_counts",
    "band_pair_indices",
    "EngineSettings",
    "ShardPlan",
    "ShardSpec",
    "band_fingerprint",
    "load_shard_checkpoint",
    "merge_shards",
    "save_shard_checkpoint",
    "QUARANTINE_FILENAME",
    "InlineWorkerBackend",
    "ProcessWorkerBackend",
    "QuarantinedPair",
    "QuarantineManifest",
    "RetryPolicy",
    "ShardOrchestrator",
    "WorkerCrash",
    "WorkerHang",
    "compute_backoff",
    "EMDResult",
    "emd",
    "emd_with_flow",
    "GroundDistance",
    "cross_distance_matrix",
    "euclidean_cross_distance",
    "squared_euclidean_cross_distance",
    "manhattan_cross_distance",
    "chebyshev_cross_distance",
    "resolve_ground_distance",
    "solve_emd_linprog",
    "LinprogBatchResult",
    "solve_emd_linprog_batch",
    "EMDCache",
    "emd_matrix",
    "cross_emd_matrix",
    "wasserstein_1d",
    "partial_emd_1d",
    "emd_1d_histograms",
    "TransportPlan",
    "solve_transportation",
    "solve_unbalanced_transportation",
]
