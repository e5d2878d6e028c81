"""tensorpress: quantum-inspired compression of dense weight tensors.

Three composable techniques — probabilistic magnitude pruning with
entanglement-style neighbor propagation, truncated SVD of the flattened
weight matrix, and annealing-style low-rank factorization — plus parameter
bookkeeping, a matvec latency benchmark, and a CLI over the QTNS archive
format.
"""

from .tensors import (
    BitTensor,
    DenseTensor,
    TensorArchive,
    as_matrix,
    read_archive,
    write_archive,
)
from .prune import PruneConfig, PruneResult, iterative_prune
from .decompose import SvdFactors, svd
from .factorize import AnnealConfig, FactorPair, anneal_factorize
from .pipeline import (
    CompressionReport,
    LayerConfig,
    PipelineConfig,
    compress_archive,
    compress_layer,
)

__version__ = "0.7.0"

__all__ = [
    "BitTensor",
    "DenseTensor",
    "TensorArchive",
    "as_matrix",
    "read_archive",
    "write_archive",
    "PruneConfig",
    "PruneResult",
    "iterative_prune",
    "SvdFactors",
    "svd",
    "AnnealConfig",
    "FactorPair",
    "anneal_factorize",
    "LayerConfig",
    "PipelineConfig",
    "CompressionReport",
    "compress_layer",
    "compress_archive",
]
