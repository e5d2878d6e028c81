"""Which program functions the traced run wraps, and the per-layer metrics
computed from their spans.

Counts come from return values (PruneResult, SvdFactors, FactorPair) and, for
the survivors ranked by prune, from the length of each softmax's argument, so
the program needs no counters of its own. Every `*_s` metric of a program layer is
self time (span duration minus child spans); `cli.*_s` are inclusive.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from spans import Recorder, arg


def _prune_counts(args, kwargs, res) -> dict:
    n = arg(args, kwargs, 0, "w").size
    return {"weights": n, "pruned": round(res.achieved_sparsity * n)}


def _energy(sigma) -> float:
    return float(sum(s * s for s in sigma))


def _truncate_counts(args, kwargs, res) -> dict:
    full = arg(args, kwargs, 0, "f")
    return {"kept_rank": res.rank, "energy_kept": _energy(res.sigma), "energy": _energy(full.sigma)}


def _anneal_counts(args, kwargs, res) -> dict:
    w, cfg = arg(args, kwargs, 0, "w"), arg(args, kwargs, 1, "cfg")
    iters = len(res.loss_trace) - 1
    norm = float(np.linalg.norm(w.data.astype(np.float64)))
    return {
        "iters": iters,
        "stop_max_iters": int(iters >= cfg.max_iters),
        "loss_rel": math.sqrt(res.final_loss) / norm if norm else 0.0,
    }


def instrument(rec: Recorder, tensors, prune, decompose, factorize, pipeline) -> None:
    """Register the wrappers; Recorder.install() puts them in place."""
    wrap = rec.wrap
    archive = getattr(tensors, "TensorArchive", None)
    wrap(tensors, "read_archive", "tensors.read_archive", "tensors",
         count=lambda a, k, r: {"entries": len(r)})
    wrap(tensors, "write_archive", "tensors.write_archive", "tensors",
         count=lambda a, k, r: {"bytes": len(r),
                                "entries": len(arg(a, k, 0, "archive").entries)})
    wrap(archive, "get", "tensors.get", "tensors")
    wrap(archive, "__contains__", "tensors.contains", "tensors")
    wrap(prune, "iterative_prune", "prune.iterative_prune", "prune", count=_prune_counts)
    wrap(prune, "entangle", "prune.entangle", "prune")
    # the softmax of a stage runs over exactly the survivors that stage ranks
    wrap(prune, "_softmax", "prune.softmax", "prune",
         count=lambda a, k, r: {"ranked": arg(a, k, 0, "x").size})
    wrap(decompose, "svd", "decompose.svd", "decompose",
         count=lambda a, k, r: {"computed_rank": r.rank})
    wrap(decompose, "truncate", "decompose.truncate", "decompose", count=_truncate_counts)
    wrap(decompose, "reconstruct", "decompose.reconstruct", "decompose")
    wrap(factorize, "anneal_factorize", "factorize.anneal_factorize", "factorize",
         count=_anneal_counts)
    wrap(pipeline, "compress_layer", "pipeline.compress_layer", "pipeline",
         request_of=lambda a, k: arg(a, k, 1, "cfg").layer_name)
    wrap(pipeline, "relative_recon_error", "pipeline.relative_recon_error", "pipeline",
         request_of=lambda a, k: arg(a, k, 1, "layer").layer_name)
    wrap(pipeline, "rebuild_layer", "pipeline.rebuild_layer", "pipeline",
         request_of=lambda a, k: arg(a, k, 2, "name"))
    wrap(pipeline, "verify_report", "pipeline.verify_report", "pipeline")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, first: int, stressed: str) -> dict[str, float]:
    """Per-layer metrics of one traced compress -> verify pass: spans[first:]."""
    spans = rec.spans[first:]
    own = rec.self_times(first)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    root = []
    stressed_in_compress = 0.0
    loss_rel_max = 0.0
    for i, s in enumerate(spans):
        root.append(i if s.parent is None or s.parent < first else root[s.parent - first])
        self_s[s.name] += own[i]
        total_s[s.name] += s.duration
        calls[s.name] += 1
        for key, value in s.counts.items():
            counts[f"{s.name}.{key}"] += value
        if s.name == "factorize.anneal_factorize":
            loss_rel_max = max(loss_rel_max, s.counts.get("loss_rel", 0.0))
        if s.layer == stressed and spans[root[i]].name == "cli.compress":
            stressed_in_compress += own[i]

    compress_s = total_s["cli.compress"]
    fac_s = self_s["factorize.anneal_factorize"]
    iters = counts["factorize.anneal_factorize.iters"]
    return {
        "cli.compress_s": compress_s,
        "cli.verify_s": total_s["cli.verify"],
        "cli.compress_stressed_share": _ratio(stressed_in_compress, compress_s),
        "tensors.read_s": self_s["tensors.read_archive"],
        "tensors.write_s": self_s["tensors.write_archive"],
        "tensors.lookup_s": self_s["tensors.get"] + self_s["tensors.contains"],
        "tensors.lookup_calls": calls["tensors.get"] + calls["tensors.contains"],
        "tensors.entries": counts["tensors.write_archive.entries"],
        "tensors.bytes_written": counts["tensors.write_archive.bytes"],
        "prune.self_s": self_s["prune.iterative_prune"] + self_s["prune.softmax"],
        "prune.entangle_s": self_s["prune.entangle"],
        "prune.calls": calls["prune.iterative_prune"],
        "prune.stage_weights": counts["prune.softmax.ranked"],
        "prune.sparsity": _ratio(counts["prune.iterative_prune.pruned"],
                                 counts["prune.iterative_prune.weights"]),
        "decompose.svd_s": self_s["decompose.svd"],
        "decompose.reconstruct_s": self_s["decompose.reconstruct"],
        "decompose.calls": calls["decompose.svd"],
        "decompose.kept_frac": _ratio(counts["decompose.truncate.kept_rank"],
                                      counts["decompose.svd.computed_rank"]),
        "decompose.energy_kept": _ratio(counts["decompose.truncate.energy_kept"],
                                        counts["decompose.truncate.energy"]),
        "factorize.s": fac_s,
        "factorize.calls": calls["factorize.anneal_factorize"],
        "factorize.iters": iters,
        "factorize.s_per_iter": _ratio(fac_s, iters),
        "factorize.stop_max_iters": counts["factorize.anneal_factorize.stop_max_iters"],
        "factorize.loss_rel": loss_rel_max,
        "pipeline.compress_layer_self_s": self_s["pipeline.compress_layer"],
        "pipeline.recon_error_s": self_s["pipeline.relative_recon_error"],
        "pipeline.rebuild_s": self_s["pipeline.rebuild_layer"],
        "pipeline.verify_report_self_s": self_s["pipeline.verify_report"],
        "trace.spans": len(spans),
    }
