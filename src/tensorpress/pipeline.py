"""Per-layer compression pass composing prune / decompose / factorize,
parameter bookkeeping, and the compression report."""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import decompose as dec
from . import factorize as fac
from . import prune as pr
from .errors import ConfigError, ShapeError
from .tensors import DenseTensor, TensorArchive, flatten_conv

STAGES = ("prune", "decompose", "factorize")
DEFAULT_STAGE_LIST = list(STAGES)


@dataclass(frozen=True)
class LayerConfig:
    layer_name: str
    stage_list: tuple[str, ...] = tuple(DEFAULT_STAGE_LIST)
    prune: pr.PruneConfig = pr.PruneConfig()
    rank_svd: int | None = None
    anneal: fac.AnnealConfig | None = None

    def __post_init__(self):
        if not self.stage_list:
            raise ConfigError(f"layer {self.layer_name!r}: stage_list is empty")
        if len(set(self.stage_list)) != len(self.stage_list):
            raise ConfigError(f"layer {self.layer_name!r}: duplicate stages")
        for s in self.stage_list:
            if s not in STAGES:
                raise ConfigError(f"layer {self.layer_name!r}: unknown stage {s!r}")
        if "decompose" in self.stage_list and self.rank_svd is None:
            raise ConfigError(f"layer {self.layer_name!r}: decompose stage needs rank_svd")
        if "factorize" in self.stage_list and self.anneal is None:
            raise ConfigError(f"layer {self.layer_name!r}: factorize stage needs anneal config")


@dataclass
class CompressedLayer:
    layer_name: str
    original_shape: tuple[int, ...]
    kind: str  # "masked" | "svd" | "factored"
    mask: pr.RetainMask | None = None  # original shape
    masked: DenseTensor | None = None
    svd_factors: dec.SvdFactors | None = None
    factors: fac.FactorPair | None = None

    def param_count(self) -> int:
        if self.kind == "masked":
            return int(np.count_nonzero(self.mask))
        if self.kind == "svd":
            return self.svd_factors.param_count()
        return self.factors.param_count()

    def mask_bits(self) -> int:
        return int(np.prod(self.original_shape)) if self.mask is not None else 0

    def entries(self) -> list[tuple[str, DenseTensor]]:
        """Archive entries representing this layer's stored artifact."""
        name = self.layer_name
        out: list[tuple[str, DenseTensor]] = []
        if self.kind == "masked":
            out.append((name, self.masked))
        elif self.kind == "svd":
            f = self.svd_factors
            out.append((f"{name}.u", f.u))
            out.append((f"{name}.sigma", DenseTensor(np.asarray(f.sigma, dtype=np.float32))))
            out.append((f"{name}.v", f.v))
        else:
            out.append((f"{name}.w1", self.factors.w1))
            out.append((f"{name}.w2", self.factors.w2))
        if self.mask is not None:
            out.append((f"{name}.mask", DenseTensor(self.mask.astype(np.float32))))
        return out

    def effective_matrix(self) -> np.ndarray:
        """The matrix the artifact stands for at inference: mask applied
        multiplicatively to the factor product / reconstruction."""
        if self.kind == "masked":
            return _as_matrix(self.masked.data)
        if self.kind == "svd":
            eff = dec.reconstruct(self.svd_factors).data.astype(np.float64)
            eff = _as_matrix(eff)
        else:
            eff = self.factors.w1.data.astype(np.float64) @ self.factors.w2.data.astype(
                np.float64
            )
        if self.mask is not None:
            eff = eff * _as_matrix(self.mask)
        return eff


def _as_matrix(a: np.ndarray) -> np.ndarray:
    return a.reshape(a.shape[0], -1) if a.ndim == 4 else a


def relative_recon_error(original: DenseTensor, layer: CompressedLayer) -> float:
    w = _as_matrix(original.data.astype(np.float64))
    norm = np.linalg.norm(w)
    if norm == 0:
        return 0.0
    return float(np.linalg.norm(w - layer.effective_matrix()) / norm)


def compress_layer(w: DenseTensor, cfg: LayerConfig) -> tuple[CompressedLayer, dict]:
    """Apply cfg.stage_list in order to one weight tensor."""
    if len(w.shape) not in (2, 4):
        raise ShapeError(
            f"layer {cfg.layer_name!r}: need a 2- or 4-axis tensor, got {len(w.shape)} axes"
        )
    t0 = time.perf_counter()
    original_shape = w.shape
    current = flatten_conv(w) if len(w.shape) == 4 else w

    mask = None
    svd_f = None
    pair = None
    kind = None
    try:
        for stage in cfg.stage_list:
            if stage == "prune":
                # prune in the original layout so conv adjacency applies
                tensor_in = current.reshape(original_shape)
                res = pr.iterative_prune(tensor_in, cfg.prune)
                mask = res.mask
                current = DenseTensor(_as_matrix(res.pruned_weights.data))
                kind = "masked"
            elif stage == "decompose":
                full = dec.svd(current)
                rank = min(cfg.rank_svd, full.rank)
                svd_f = dec.truncate(full, rank)
                current = DenseTensor(_as_matrix(dec.reconstruct(svd_f).data))
                kind = "svd"
            else:
                pair = fac.anneal_factorize(current, cfg.anneal)
                current = fac.compressed_matrix(pair)
                kind = "factored"
    except Exception as exc:
        exc.args = (f"layer {cfg.layer_name!r}: {exc}",)
        raise
    if kind == "svd":
        # the archive stores sigma as f32; report the error of what is stored
        svd_f = replace(svd_f, sigma=tuple(np.asarray(svd_f.sigma, dtype=np.float32).tolist()))

    layer = CompressedLayer(
        layer_name=cfg.layer_name,
        original_shape=original_shape,
        kind=kind,
        mask=mask,
        masked=DenseTensor(current.data.reshape(original_shape)) if kind == "masked" else None,
        svd_factors=svd_f if kind == "svd" else None,
        factors=pair if kind == "factored" else None,
    )
    row = {
        "layer_name": cfg.layer_name,
        "kind": kind,
        "params_before": w.size,
        "params_after": layer.param_count(),
        "ratio": w.size / layer.param_count(),
        "recon_error_rel": relative_recon_error(w, layer),
        "mask_bits": layer.mask_bits(),
        "wall_time": time.perf_counter() - t0,
    }
    return layer, row


@dataclass
class CompressionReport:
    per_layer: list[dict]
    total_ratio: float
    config_echo: dict

    def to_json(self) -> str:
        # wall_time is measurement noise; keep it off disk so identical runs
        # serialize byte-identically
        rows = [{k: v for k, v in r.items() if k != "wall_time"} for r in self.per_layer]
        doc = {
            "per_layer": rows,
            "total_ratio": self.total_ratio,
            "config_echo": self.config_echo,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_json(text: str) -> "CompressionReport":
        doc = json.loads(text)
        return CompressionReport(
            per_layer=doc["per_layer"],
            total_ratio=doc["total_ratio"],
            config_echo=doc.get("config_echo", {}),
        )

    def table(self) -> str:
        header = f"{'layer':<20} {'kind':<9} {'before':>10} {'after':>10} {'ratio':>8} {'rel err':>10} {'time':>8}"
        lines = [header, "-" * len(header)]
        for r in self.per_layer:
            wt = f"{r['wall_time']:.3f}s" if "wall_time" in r else "-"
            lines.append(
                f"{r['layer_name']:<20} {r['kind']:<9} {r['params_before']:>10} "
                f"{r['params_after']:>10} {r['ratio']:>8.2f} {r['recon_error_rel']:>10.3e} {wt:>8}"
            )
        lines.append(f"total ratio: {self.total_ratio:.2f}x")
        return "\n".join(lines)


def _stable_hash64(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "little")


def derive_seed(base_seed: int, layer_name: str, role: str) -> int:
    """Per-(layer, role) seed stream: base xor a stable hash of layer and role."""
    return (base_seed ^ _stable_hash64(f"{role}:{layer_name}")) & 0x7FFFFFFFFFFFFFFF


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = v
    return out


@dataclass
class PipelineConfig:
    """Parsed form of the JSON config {"defaults": {...}, "layers": {name: overrides}}."""

    defaults: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)

    @staticmethod
    def from_json(text: str) -> "PipelineConfig":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(doc) - {"defaults", "layers"}
        if unknown:
            raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")
        return PipelineConfig(defaults=doc.get("defaults", {}), layers=doc.get("layers", {}))

    def resolved(self, layer_name: str, seed_override: int | None = None) -> LayerConfig:
        merged = _deep_merge(self.defaults, self.layers.get(layer_name, {}))
        base_seed = seed_override if seed_override is not None else merged.get("seed", 0)
        prune_d = dict(merged.get("prune", {}))
        if seed_override is not None or "seed" not in prune_d:
            prune_d["seed"] = derive_seed(base_seed, layer_name, "prune")
        anneal_d = dict(merged.get("anneal", {}))
        stage_list = tuple(merged.get("stage_list", DEFAULT_STAGE_LIST))
        anneal = None
        if "factorize" in stage_list:
            if "rank" not in anneal_d:
                raise ConfigError(f"layer {layer_name!r}: anneal.rank is required")
            if seed_override is not None or "seed" not in anneal_d:
                anneal_d["seed"] = derive_seed(base_seed, layer_name, "anneal")
            anneal = fac.AnnealConfig(**anneal_d)
        try:
            return LayerConfig(
                layer_name=layer_name,
                stage_list=stage_list,
                prune=pr.PruneConfig(**prune_d),
                rank_svd=merged.get("rank_svd"),
                anneal=anneal,
            )
        except TypeError as exc:
            raise ConfigError(f"layer {layer_name!r}: {exc}") from exc

    def echo(self) -> dict:
        return {"defaults": self.defaults, "layers": self.layers}


def compress_archive(
    archive: TensorArchive,
    config: PipelineConfig,
    jobs: int = 1,
    seed_override: int | None = None,
) -> tuple[TensorArchive, CompressionReport]:
    """Compress configured layers, pass the rest through unmodified."""
    missing = [name for name in config.layers if name not in archive]
    if missing:
        raise ConfigError(f"config names layers missing from archive: {missing}")

    def work(item):
        name, tensor = item
        if name in config.layers:
            return compress_layer(tensor, config.resolved(name, seed_override))
        return None, None

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(work, archive.entries))
    else:
        results = [work(item) for item in archive.entries]

    out_entries: list[tuple[str, DenseTensor]] = []
    rows: list[dict] = []
    total_before = 0
    total_after = 0
    for (name, tensor), (layer, row) in zip(archive.entries, results):
        if layer is None:
            out_entries.append((name, tensor))
            total_before += tensor.size
            total_after += tensor.size
        else:
            out_entries.extend(layer.entries())
            rows.append(row)
            total_before += row["params_before"]
            total_after += row["params_after"]
    report = CompressionReport(
        per_layer=rows,
        total_ratio=total_before / total_after if total_after else 1.0,
        config_echo=config.echo(),
    )
    return TensorArchive(entries=out_entries), report


def rebuild_layer(
    original: DenseTensor, compressed: TensorArchive, name: str, kind: str
) -> CompressedLayer:
    """Reassemble a CompressedLayer from its archive entries, for verification."""
    mask = None
    if f"{name}.mask" in compressed:
        mask = compressed.get(f"{name}.mask").data.astype(np.uint8)
    if kind == "masked":
        return CompressedLayer(name, original.shape, "masked",
                               mask=compressed.get(name).data.astype(np.uint8) != 0
                               if mask is None else mask,
                               masked=compressed.get(name))
    if kind == "svd":
        factors = dec.SvdFactors(
            u=compressed.get(f"{name}.u"),
            sigma=tuple(float(x) for x in compressed.get(f"{name}.sigma").data),
            v=compressed.get(f"{name}.v"),
            original_shape=original.shape,
        )
        return CompressedLayer(name, original.shape, "svd", mask=mask, svd_factors=factors)
    if kind == "factored":
        pair = fac.FactorPair(
            w1=compressed.get(f"{name}.w1"),
            w2=compressed.get(f"{name}.w2"),
            final_loss=0.0,
        )
        return CompressedLayer(name, original.shape, "factored", mask=mask, factors=pair)
    raise ConfigError(f"unknown artifact kind {kind!r} for layer {name!r}")


def verify_report(
    original: TensorArchive, compressed: TensorArchive, report: CompressionReport
) -> list[str]:
    """Recompute bookkeeping from the artifacts; return mismatch descriptions."""
    problems: list[str] = []
    total_before = 0
    total_after = 0
    compressed_names = {r["layer_name"] for r in report.per_layer}
    for row in report.per_layer:
        name = row["layer_name"]
        if name not in original:
            problems.append(f"{name}: not present in original archive")
            continue
        w = original.get(name)
        layer = rebuild_layer(w, compressed, name, row["kind"])
        checks = [
            ("params_before", w.size, 0),
            ("params_after", layer.param_count(), 0),
            ("ratio", w.size / layer.param_count(), 1e-9),
            ("recon_error_rel", relative_recon_error(w, layer), 1e-9),
            ("mask_bits", layer.mask_bits(), 0),
        ]
        for fieldname, expected, tol in checks:
            got = row.get(fieldname)
            if got is None or abs(got - expected) > tol * max(abs(expected), 1.0):
                problems.append(f"{name}.{fieldname}: report {got}, recomputed {expected}")
                break
        total_before += w.size
        total_after += layer.param_count()
    for name, tensor in original.entries:
        if name not in compressed_names:
            total_before += tensor.size
            total_after += tensor.size
    if total_after:
        expected_total = total_before / total_after
        if abs(report.total_ratio - expected_total) > 1e-9 * max(expected_total, 1.0):
            problems.append(
                f"total_ratio: report {report.total_ratio}, recomputed {expected_total}"
            )
    return problems
