"""Per-layer compression pass composing prune / decompose / factorize,
parameter bookkeeping, and the compression report."""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import decompose as dec
from . import factorize as fac
from . import prune as pr
from .errors import ArchiveError, ConfigError, VerificationError, check_int
from .tensors import DenseTensor, TensorArchive, flatten_conv

STAGES = ("prune", "decompose", "factorize")
DEFAULT_STAGE_LIST = list(STAGES)
# keys of "defaults" and of each layer's overrides; prune and anneal are objects
LAYER_KEYS = ("seed", "stage_list", "prune", "rank_svd", "anneal")

# Entry names of each artifact kind (layer name + suffix), in entries() order;
# a pruned layer adds name + MASK_SUFFIX, which a "masked" layer always has.
ENTRY_SUFFIXES = {"masked": ("",), "svd": (".u", ".sigma", ".v"), "factored": (".w1", ".w2")}
MASK_SUFFIX = ".mask"


@dataclass(frozen=True)
class LayerConfig:
    layer_name: str
    stage_list: tuple[str, ...] = tuple(DEFAULT_STAGE_LIST)
    prune: pr.PruneConfig = pr.PruneConfig()
    rank_svd: int | None = None
    anneal: fac.AnnealConfig | None = None

    def __post_init__(self):
        if not self.stage_list:
            raise ConfigError("stage_list is empty")
        for s in self.stage_list:
            if s not in STAGES:
                raise ConfigError(f"unknown stage {s!r}")
        if len(set(self.stage_list)) != len(self.stage_list):
            raise ConfigError("duplicate stages")
        if self.rank_svd is not None:
            check_int("rank_svd", self.rank_svd, 1)
        if "decompose" in self.stage_list and self.rank_svd is None:
            raise ConfigError("decompose stage needs rank_svd")
        if "factorize" in self.stage_list and self.anneal is None:
            raise ConfigError("factorize stage needs anneal config")


@dataclass(frozen=True)
class CompressedLayer:
    """One compressed layer as the archive stores it: the kind's f32 tensors in
    ENTRY_SUFFIXES order, (weights,), (u, sigma, v) or (w1, w2), and the retain
    mask of a prune stage, in the original shape, if one ran."""

    layer_name: str
    kind: str  # "masked" | "svd" | "factored"
    tensors: tuple[DenseTensor, ...]
    mask: pr.RetainMask | None

    @property
    def masked(self) -> DenseTensor:
        (weights,) = self.tensors
        return weights

    @property
    def svd_factors(self) -> dec.SvdFactors:
        u, sigma, v = self.tensors
        return dec.SvdFactors(u=u, sigma=tuple(float(x) for x in sigma.data), v=v)

    @property
    def factors(self) -> fac.FactorPair:
        w1, w2 = self.tensors
        return fac.FactorPair(w1, w2, final_loss=0.0)

    def param_count(self) -> int:
        if self.kind == "masked":
            return int(np.count_nonzero(self.mask))
        return sum(t.size for t in self.tensors)

    def entries(self) -> list[tuple[str, DenseTensor]]:
        """Archive entries representing this layer's stored artifact."""
        out = [(self.layer_name + s, t) for s, t in zip(ENTRY_SUFFIXES[self.kind], self.tensors)]
        if self.mask is not None:
            out.append((self.layer_name + MASK_SUFFIX, DenseTensor(self.mask.astype(np.float32))))
        return out

    def effective_matrix(self) -> np.ndarray:
        """The matrix the artifact stands for at inference: mask applied
        multiplicatively to the factor product / reconstruction."""
        if self.kind == "masked":
            return _as_matrix(self.masked.data)
        if self.kind == "svd":
            eff = dec.reconstruct(self.svd_factors).data.astype(np.float64)
        else:
            w1, w2 = (t.data.astype(np.float64) for t in self.tensors)
            eff = w1 @ w2
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


def layer_row(w: DenseTensor, layer: CompressedLayer) -> dict:
    """The report row of one layer: its bookkeeping against the original w."""
    params_after = layer.param_count()
    return {
        "layer_name": layer.layer_name,
        "kind": layer.kind,
        "params_before": w.size,
        "params_after": params_after,
        "ratio": w.size / params_after,
        "recon_error_rel": relative_recon_error(w, layer),
        "mask_bits": w.size if layer.mask is not None else 0,
    }


def check_layer_input(name: str, w: DenseTensor) -> None:
    """Raise ConfigError unless compress can take w (2 or 4 axes), and
    ArchiveError if any of its weights is NaN or infinite."""
    if len(w.shape) not in (2, 4):
        raise ConfigError(f"layer {name!r}: need a 2- or 4-axis tensor, got {len(w.shape)} axes")
    bad = w.size - int(np.count_nonzero(np.isfinite(w.data)))
    if bad:
        raise ArchiveError(f"layer {name!r}: {bad} of {w.size} weights are NaN or infinite")


def compress_layer(w: DenseTensor, cfg: LayerConfig) -> tuple[CompressedLayer, dict]:
    """Apply cfg.stage_list in order to one weight tensor."""
    check_layer_input(cfg.layer_name, w)
    t0 = time.perf_counter()
    current = flatten_conv(w) if len(w.shape) == 4 else w
    mask = None
    try:
        for stage in cfg.stage_list:
            if stage == "prune":
                # prune in the original layout so conv adjacency applies
                res = pr.iterative_prune(current.reshape(w.shape), cfg.prune)
                mask = res.mask
                if not mask.any():
                    raise ConfigError(
                        f"leaves none of its {w.size} weights "
                        f"(alpha {cfg.prune.alpha}, entangle_prob {cfg.prune.entangle_prob})"
                    )
                kind, tensors = "masked", (res.pruned_weights,)
                current = DenseTensor(_as_matrix(res.pruned_weights.data))
            elif stage == "decompose":
                full = dec.svd(current)
                svd_f = dec.truncate(full, min(cfg.rank_svd, full.rank))
                # the archive stores sigma as f32; a next stage takes the f64 product
                sigma = DenseTensor(np.asarray(svd_f.sigma, dtype=np.float32))
                kind, tensors = "svd", (svd_f.u, sigma, svd_f.v)
                current = dec.reconstruct(svd_f)
            else:
                pair = fac.anneal_factorize(current, cfg.anneal)
                kind, tensors = "factored", (pair.w1, pair.w2)
                current = fac.compressed_matrix(pair)
    except Exception as exc:
        exc.args = (f"layer {cfg.layer_name!r} ({stage}): {exc}",)
        raise

    layer = CompressedLayer(cfg.layer_name, kind, tensors, mask)
    row = layer_row(w, layer)
    row["wall_time"] = time.perf_counter() - t0
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
        if not isinstance(doc, dict):
            raise VerificationError("report is not a JSON object")
        rows = doc.get("per_layer", [])
        if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
            raise VerificationError("report per_layer is not a list of JSON objects")
        try:
            return CompressionReport(
                per_layer=doc["per_layer"],
                total_ratio=doc["total_ratio"],
                config_echo=doc.get("config_echo", {}),
            )
        except KeyError as exc:
            raise VerificationError(f"report has no {exc} key") from None

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
    """Parsed form of the JSON config {"defaults": {...}, "layers": {name: overrides}}.
    Construction checks the structure; resolved() checks the values."""

    defaults: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.layers, dict):
            raise ConfigError("layers: must be a JSON object")
        _check_keys("defaults", self.defaults)
        for name, overrides in self.layers.items():
            _check_keys(f"layer {name!r}", overrides)

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
        """The layer's checked config: defaults deep-merged with its overrides,
        and each prune or anneal seed not given derived from the base seed."""
        try:
            merged = _deep_merge(self.defaults, self.layers.get(layer_name, {}))
            base_seed = seed_override if seed_override is not None else merged.get("seed", 0)
            check_int("seed", base_seed)
            prune_d = dict(merged.get("prune", {}))
            if seed_override is not None or "seed" not in prune_d:
                prune_d["seed"] = derive_seed(base_seed, layer_name, "prune")
            anneal_d = dict(merged.get("anneal", {}))
            stage_list = merged.get("stage_list", DEFAULT_STAGE_LIST)
            if not isinstance(stage_list, (list, tuple)):
                raise ConfigError(f"stage_list must be a list, got {stage_list!r}")
            anneal = None
            if "factorize" in stage_list:
                if seed_override is not None or "seed" not in anneal_d:
                    anneal_d["seed"] = derive_seed(base_seed, layer_name, "anneal")
                anneal = fac.AnnealConfig(**anneal_d)
            return LayerConfig(
                layer_name=layer_name,
                stage_list=tuple(stage_list),
                prune=pr.PruneConfig(**prune_d),
                rank_svd=merged.get("rank_svd"),
                anneal=anneal,
            )
        except (ConfigError, TypeError) as exc:
            raise ConfigError(f"layer {layer_name!r}: {exc}") from exc

    def echo(self) -> dict:
        return {"defaults": self.defaults, "layers": self.layers}


def _check_keys(where: str, block) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{where}: must be a JSON object")
    unknown = set(block) - set(LAYER_KEYS)
    if unknown:
        raise ConfigError(
            f"{where}: unknown keys {sorted(unknown)}; known keys are {list(LAYER_KEYS)}"
        )
    for key in ("prune", "anneal"):
        if not isinstance(block.get(key, {}), dict):
            raise ConfigError(f"{where}: {key} must be a JSON object")


def total_ratio(original: TensorArchive, rows: list[dict]) -> float:
    """Parameters before over after across the archive; entries without a row
    pass through at their own size."""
    by_name = {r["layer_name"]: r for r in rows}
    before = after = 0
    for name, tensor in original.entries:
        row = by_name.get(name, {"params_before": tensor.size, "params_after": tensor.size})
        before += row["params_before"]
        after += row["params_after"]
    return before / after if after else 1.0


def compress_archive(
    archive: TensorArchive,
    config: PipelineConfig,
    jobs: int = 1,
    seed_override: int | None = None,
) -> tuple[TensorArchive, CompressionReport]:
    """Compress configured layers, up to jobs at once, and pass the rest through
    unmodified. Every configured layer's config and weights are checked
    before the first layer is compressed."""
    check_int("jobs", jobs, 1)
    missing = [name for name in config.layers if name not in archive]
    if missing:
        raise ConfigError(f"config names layers missing from archive: {missing}")
    configured = [(name, tensor) for name, tensor in archive.entries if name in config.layers]
    configs = [config.resolved(name, seed_override) for name, _ in configured]
    for name, tensor in configured:
        check_layer_input(name, tensor)
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(compress_layer, [t for _, t in configured], configs))
    rows = [row for _, row in results]
    report = CompressionReport(
        per_layer=rows, total_ratio=total_ratio(archive, rows), config_echo=config.echo()
    )
    return output_archive(archive, {layer.layer_name: layer for layer, _ in results}), report


def output_archive(original: TensorArchive, layers: dict[str, CompressedLayer]) -> TensorArchive:
    """The archive compress writes: the original entries in order, each layer's
    entries in place of the weights it compresses."""
    entries: list[tuple[str, DenseTensor]] = []
    for name, tensor in original.entries:
        entries.extend(layers[name].entries() if name in layers else [(name, tensor)])
    return TensorArchive(entries=entries)


def rebuild_layer(
    original: DenseTensor, compressed: TensorArchive, name: str, kind: str
) -> CompressedLayer:
    """Read back the CompressedLayer that entries() stored in the archive. Every
    stored tensor must have the shape its kind gives it against the original:
    u m x r, sigma r, v n x r, w1 m x r, w2 r x n, mask and masked weights the
    original shape. A stored mask holds only +0.0 and 1.0 and keeps a weight,
    and a masked layer's weights are 0 wherever its mask is."""
    if kind not in ENTRY_SUFFIXES:
        raise VerificationError(f"layer {name!r}: unknown artifact kind {kind!r}")
    if len(original.shape) not in (2, 4):
        raise VerificationError(
            f"layer {name!r}: original has {len(original.shape)} axes, compress takes 2 or 4"
        )
    names = [name + s for s in ENTRY_SUFFIXES[kind]]
    if kind == "masked" or name + MASK_SUFFIX in compressed:
        names.append(name + MASK_SUFFIX)
    missing = [n for n in names if n not in compressed]
    if missing:
        raise VerificationError(f"layer {name!r} ({kind}): archive has no {missing}")
    tensors = [compressed.get(n) for n in names]
    m, n = _as_matrix(original.data).shape
    r = tensors[0].shape[-1]  # u and w1 are m x r
    shapes = {"masked": [original.shape], "svd": [(m, r), (r,), (n, r)],
              "factored": [(m, r), (r, n)]}[kind] + [original.shape]  # then the mask
    for entry, t, shape in zip(names, tensors, shapes):
        if t.shape != shape:
            raise VerificationError(f"layer {name!r} ({kind}): {entry} is {t.shape}, not {shape}")
    k = len(ENTRY_SUFFIXES[kind])
    mask = None
    if len(tensors) > k:
        bits = tensors[k].data
        mask = (bits == 1).astype(np.uint8)
        # by bytes: a mask has the one encoding compress writes, so no -0.0
        if mask.astype(np.float32).tobytes() != bits.tobytes():
            raise VerificationError(
                f"layer {name!r}: {names[k]} holds values other than 0, 1 (as f32 +0.0, 1.0)"
            )
        if not mask.any():
            raise VerificationError(f"layer {name!r}: stored mask keeps no weight")
        # by value: compress stores -0.0 where it prunes a negative weight
        if kind == "masked" and np.any(tensors[0].data[mask == 0]):
            raise VerificationError(f"layer {name!r}: {name} holds weights where its mask is 0")
    return CompressedLayer(name, kind, tuple(tensors[:k]), mask)


def _agrees(got, expected) -> bool:
    """Names and counts must match exactly; floats (ratios, errors) within 1e-9 relative."""
    if not isinstance(expected, float) or not isinstance(got, (int, float)):
        return got == expected
    return abs(got - expected) <= 1e-9 * max(abs(expected), 1.0)


def verify_report(
    original: TensorArchive, compressed: TensorArchive, report: CompressionReport
) -> None:
    """Recompute each row, and the total, from the layers rebuilt from the
    archive; then check that the archive holds exactly the entries compress
    writes for those layers, in its order, with each pass-through entry the
    original's bytes. Raise VerificationError at the first mismatch."""
    layers: dict[str, CompressedLayer] = {}
    rows: list[dict] = []
    for i, row in enumerate(report.per_layer):
        absent = [k for k in ("layer_name", "kind") if not isinstance(row.get(k), str)]
        if absent:
            raise VerificationError(f"report row {i} has no string {absent}")
        name = row["layer_name"]
        if name in layers:
            raise VerificationError(f"report row {i} repeats layer {name!r}")
        if name not in original:
            raise VerificationError(f"report row {i}: {name!r} is not in the original archive")
        w = original.get(name)
        layers[name] = rebuild_layer(w, compressed, name, row["kind"])
        rows.append(layer_row(w, layers[name]))
        for key, want in rows[-1].items():
            if not _agrees(row.get(key), want):
                raise VerificationError(f"{name}.{key}: report {row.get(key)}, recomputed {want}")
    expected_total = total_ratio(original, rows)
    if not _agrees(report.total_ratio, expected_total):
        raise VerificationError(
            f"total_ratio: report {report.total_ratio}, recomputed {expected_total}"
        )

    expected = output_archive(original, layers)
    if compressed.names() != expected.names():
        extra = [n for n in compressed.names() if n not in expected]
        missing = [n for n in expected.names() if n not in compressed]
        raise VerificationError(
            f"archive entries are not those compress writes, in its order: "
            f"extra {extra}, missing {missing}"
        )
    for name, tensor in original.entries:
        if name not in layers:
            stored = compressed.get(name)
            # bytes, not values: NaN pass-throughs are legal and equal only so
            if stored.shape != tensor.shape or stored.data.tobytes() != tensor.data.tobytes():
                raise VerificationError(f"{name}: pass-through entry differs from the original")
