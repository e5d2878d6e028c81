"""Workload definitions: the layers `gen` writes and the config `compress` reads.

Every input is a function of the workload seed: `gen` draws the weights from
it, and it is the config's base seed, from which the pipeline derives the
prune and anneal seeds of each layer.

`full` is the measured size; `toy` is the smoke-test size. Full sizes are
scaled down from a 1024^2 probe so that one compress -> verify pass takes
1-3 s on a 2-core x86-64 VM with one BLAS thread, while each workload keeps
the share of compress time in the layer it was chosen to stress.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SCALES = ("full", "toy")


@dataclass(frozen=True)
class Workload:
    name: str
    stressed: str                           # layer expected to take most of compress
    layers: tuple[tuple[str, tuple[int, ...]], ...]
    configured: tuple[str, ...]             # layers the config compresses
    config: dict

    def layer_args(self) -> list[str]:
        return [f"--layer={n}={'x'.join(map(str, s))}" for n, s in self.layers]

    def configured_params(self) -> int:
        return sum(math.prod(shape) for name, shape in self.layers if name in self.configured)


def _fc_full(scale: str, seed: int) -> Workload:
    # The paper's default pipeline: prune -> decompose -> factorize. Anneal
    # is most of compress here, and the mask times the factor product makes
    # the artifact dense at inference.
    n, conv, rank, conv_rank, iters = (
        (512, (128, 64, 3, 3), 41, 8, 2000) if scale == "full"
        else (48, (16, 8, 3, 3), 6, 3, 60)
    )
    layers = (("fc1", (n, n)), ("fc2", (n, n)), ("conv1", conv))
    config = {
        "defaults": {
            "seed": seed,
            "stage_list": ["prune", "decompose", "factorize"],
            "prune": {"alpha": 0.1417, "stages": 3, "entangle_prob": 0.1},
            "rank_svd": rank,
            "anneal": {"rank": rank, "decay": 0.999, "max_iters": iters, "rel_tol": 1e-7},
        },
        "layers": {
            "fc1": {},
            "fc2": {},
            "conv1": {"rank_svd": conv_rank, "anneal": {"rank": conv_rank}},
        },
    }
    return Workload("fc_full", "factorize", layers, ("fc1", "fc2", "conv1"), config)


def _prune_conv(scale: str, seed: int) -> Workload:
    # Prune only, on 4-axis tensors, so the conv neighbour path of entangle
    # runs and neither SVD nor anneal does.
    count, c = (8, 128) if scale == "full" else (2, 16)
    layers = tuple((f"conv{i}", (c, c, 3, 3)) for i in range(count))
    names = tuple(n for n, _ in layers)
    config = {
        "defaults": {
            "seed": seed,
            "stage_list": ["prune"],
            "prune": {"alpha": 0.5, "stages": 5, "entangle_prob": 0.1},
        },
        "layers": {n: {} for n in names},
    }
    return Workload("prune_conv", "prune", layers, names, config)


def _svd_many(scale: str, seed: int) -> Workload:
    # Many small layers plus many pass-through vectors: full SVD that keeps
    # few triples, and archive I/O and name lookups dominated by entry count.
    # Not in BENCHMARK.json: its batch-1 forward, 400 tiny matvecs, read
    # either ~570 us or ~900 us for whole runs on a shared VM, so ten runs
    # spread past any allowed bound. It stays runnable by name.
    count, n, vectors, rank = (200, 128, 1000, 16) if scale == "full" else (8, 24, 20, 4)
    mats = tuple((f"layer{i:03d}", (n, n)) for i in range(count))
    vecs = tuple((f"bias{i:04d}", (n,)) for i in range(vectors))
    names = tuple(name for name, _ in mats)
    config = {
        "defaults": {"seed": seed, "stage_list": ["decompose"], "rank_svd": rank},
        "layers": {name: {} for name in names},
    }
    return Workload("svd_many", "decompose", mats + vecs, names, config)


DEFINED = {"fc_full": _fc_full, "prune_conv": _prune_conv, "svd_many": _svd_many}


def build(name: str, scale: str, seed: int) -> Workload:
    if name not in DEFINED:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(DEFINED)}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {SCALES}")
    return DEFINED[name](scale, seed)
