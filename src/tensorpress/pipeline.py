"""Per-layer compression pass composing prune / decompose / factorize,
parameter bookkeeping, and the compression report."""

from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
import hashlib
import json
import math
import os
import reprlib
import threading
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import decompose as dec
from . import factorize as fac
from . import prune as pr
from .errors import ArchiveError, ConfigError, VerificationError, check_int
from .tensors import BitTensor, DenseTensor, Tensor, TensorArchive, as_matrix

# the config each object block resolves to, whose fields are the block's keys
BLOCK_CONFIGS = {"prune": pr.PruneConfig, "anneal": fac.AnnealConfig}

# One record per artifact kind, the only statement of what a layer stores:
# entries, its (suffix, Tensor class) pairs in entries() order, each stored as
# layer name + suffix; shapes(shape, tensors), their shapes against the
# original's shape, read from tensors only once each has its class;
# product(tensors), the matrix they stand for at inference. A retain mask has
# the original's shape, never its own; a factored layer stores none, so it
# runs as its two factors even when a prune stage shaped them.
Kind = collections.namedtuple("Kind", "entries shapes product")
KINDS = {
    "masked": Kind(  # the kept weights alone, in C flat order of the bit mask
        (("", DenseTensor), (".mask", BitTensor)),
        lambda shape, t: [(int(np.count_nonzero(t[1].data)),), shape],
        lambda t: as_matrix(_scatter(t[0].data, t[1].data))),
    "factored": Kind(
        ((".w1", DenseTensor), (".w2", DenseTensor)),
        lambda shape, t: [(shape[0], t[0].shape[-1]), (t[0].shape[-1], math.prod(shape[1:]))],
        lambda t: np.matmul(*(x.data.astype(np.float64) for x in t))),
}


def _prune(current: DenseTensor, w: DenseTensor, cfg: LayerConfig) -> pr.PruneResult:
    """prune's run, in the original layout so conv adjacency applies; a result
    that keeps none of the layer's weights is a fault."""
    res = pr.iterative_prune(current.reshape(w.shape), cfg.prune)
    if not res.mask.any():
        raise ConfigError(f"leaves none of its {w.size} weights "
                          f"(alpha {cfg.prune.alpha}, entangle_prob {cfg.prune.entangle_prob})")
    return res


# One record per stage, in the default stage list's order: the kind it stores
# as a layer's last stage; needs, the LayerConfig key (dotted into a block) it
# cannot run without, or None; check(w, cfg), its limits on the layer's
# weights; run(current, w, cfg), its result from the m x n f32 matrix current
# that it takes; stored(result), that kind's tensors from the result;
# handed(result), the m x n f32 matrix the result hands on to a next stage.
# Records look up module functions as they run, so a probe replacing one sees
# the call.
Stage = collections.namedtuple("Stage", "kind needs check run stored handed")
STAGES = {
    "prune": Stage(
        "masked", None, lambda w, cfg: pr.check_stages(cfg.prune.stages, w.size), _prune,
        lambda res: (DenseTensor(res.pruned_weights.data.ravel().take(_kept(res.mask))),
                     BitTensor(res.mask)),
        lambda res: DenseTensor(as_matrix(res.pruned_weights.data))),  # w * mask: may hold -0.0
    "decompose": Stage(  # stores (u diag(sigma), v^T) in f32; hands on from the f64 sigma
        "factored", "rank_svd", lambda w, cfg: None,
        lambda current, w, cfg: dec.truncate(dec.svd(current), min(cfg.rank_svd, *current.shape)),
        lambda f: (DenseTensor(f.u.data * f.sigma), DenseTensor(f.v.data.T)),
        lambda f: dec.reconstruct(f)),
    "factorize": Stage(  # hands on the product, rounded to f32
        "factored", "anneal.rank",
        lambda w, cfg: fac.check_rank(cfg.anneal.rank, *as_matrix(w.data).shape),
        lambda current, w, cfg: fac.anneal_factorize(current, cfg.anneal),
        lambda pair: (pair.w1, pair.w2),
        lambda pair: DenseTensor(KINDS["factored"].product((pair.w1, pair.w2)))),
}
OVERFLOW = "its result overflows f32"  # a stage's fault where its f32 result is not finite


def _entry_names(name: str, kind: str) -> list[str]:
    """The archive entries of a layer's artifact, in entries() order."""
    return [name + suffix for suffix, _ in KINDS[kind].entries]


def _output_names(original: TensorArchive, kinds: dict[str, str]) -> dict[str, list[str]]:
    """The entry names compress writes for each original entry, in order: a
    compressed layer's _entry_names(name, kinds[name]), else the entry's own
    name. verify requires exactly them."""
    return {name: _entry_names(name, kinds[name]) if name in kinds else [name]
            for name, _ in original.entries}


@dataclass(frozen=True)
class LayerConfig:
    layer_name: str
    stage_list: tuple[str, ...] = tuple(STAGES)
    prune: pr.PruneConfig = pr.PruneConfig()
    rank_svd: int | None = None
    anneal: fac.AnnealConfig = fac.AnnealConfig()

    def __post_init__(self):
        for key, cls in BLOCK_CONFIGS.items():
            if not isinstance(getattr(self, key), cls):
                got = reprlib.repr(getattr(self, key))
                raise ConfigError(f"{key}: expected {cls.__name__}, got {got}")
        if not self.stage_list:
            raise ConfigError("stage_list is empty")
        for s in self.stage_list:
            if s not in STAGES:
                raise ConfigError(f"unknown stage {s!r}")
        if len(set(self.stage_list)) != len(self.stage_list):
            raise ConfigError("duplicate stages")
        if self.rank_svd is not None:
            check_int("rank_svd", self.rank_svd, 1)
        for stage in (s for s in STAGES if s in self.stage_list and STAGES[s].needs):
            if functools.reduce(getattr, STAGES[stage].needs.split("."), self) is None:
                raise ConfigError(f"{stage} stage needs {STAGES[stage].needs}")


@dataclass(frozen=True)
class CompressedLayer:
    """One compressed layer as the archive stores it: its kind's tensors, of
    the classes KINDS gives, in its entries order. The masked, factors and mask
    views remain only for perfbench's forwards, until the program has a
    forward of its own."""

    layer_name: str
    kind: str  # a key of KINDS
    tensors: tuple[Tensor, ...]

    def __post_init__(self):
        # exactly the kind's entries, so entries() and layer_row describe one archive
        classes = [cls for _, cls in KINDS[self.kind].entries]
        if len(self.tensors) != len(classes) or not all(map(isinstance, self.tensors, classes)):
            raise TypeError(f"a {self.kind} layer holds {', '.join(c.__name__ for c in classes)}")

    @property
    def masked(self) -> DenseTensor:
        return DenseTensor(_scatter(self.tensors[0].data, self.mask))

    @property
    def factors(self) -> fac.FactorPair:
        return fac.FactorPair(*self.tensors, final_loss=0.0)

    @property
    def mask(self) -> np.ndarray | None:
        """The bool retain mask, or None for a kind that stores none."""
        return next((t.data for t in self.tensors if isinstance(t, BitTensor)), None)

    def entries(self) -> list[tuple[str, Tensor]]:
        """Archive entries representing this layer's stored artifact."""
        return list(zip(_entry_names(self.layer_name, self.kind), self.tensors))

    def effective_matrix(self) -> np.ndarray:
        """The matrix the artifact stands for at inference (KINDS product)."""
        return KINDS[self.kind].product(self.tensors)


def _kept(mask: np.ndarray) -> np.ndarray:
    """The flat indices of the mask's ones in C order, where a masked layer's values go."""
    return np.flatnonzero(mask)


def _scatter(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """f32 weights in the mask's shape: the values where it is 1, 0 elsewhere."""
    weights = np.zeros(mask.size, dtype=np.float32)
    weights[_kept(mask)] = values
    return weights.reshape(mask.shape)


def relative_recon_error(original: DenseTensor, layer: CompressedLayer) -> float:
    """||w - layer.effective_matrix()|| / ||w||; for an all-zero w, 0 if the
    artifact stands for zero too and inf otherwise."""
    w = as_matrix(original.data.astype(np.float64))
    norm = np.linalg.norm(w)
    w -= layer.effective_matrix()  # in w, a float64 copy of the original
    err = np.linalg.norm(w)
    return float(err / norm) if norm else (np.inf if err else 0.0)


def layer_row(w: DenseTensor, layer: CompressedLayer) -> dict:
    """The report row of one layer: its bookkeeping against the original w.
    Bytes are archive payload, headers excluded."""
    params_after = sum(t.size for t in layer.tensors if isinstance(t, DenseTensor))
    mask_bits = sum(t.size for t in layer.tensors if isinstance(t, BitTensor))
    return {
        "layer_name": layer.layer_name,
        "kind": layer.kind,
        "params_before": w.size,
        "params_after": params_after,
        "bytes_before": w.nbytes,
        "bytes_after": sum(t.nbytes for t in layer.tensors),
        "ratio": w.size / params_after,
        "recon_error_rel": relative_recon_error(w, layer),
        "mask_bits": mask_bits,
    }


def check_layer_input(w: Tensor, cfg: LayerConfig) -> None:
    """Raise ConfigError unless compress can take w under cfg: an f32 tensor of
    2 or 4 axes, within the limits that the check of each listed stage's
    record sets, its fault led by the layer and stage. Then raise ArchiveError
    on NaN or inf."""
    name = cfg.layer_name
    if not isinstance(w, DenseTensor):
        raise ConfigError(f"layer {name!r}: is a bit tensor; compress takes f32 weights")
    if len(w.shape) not in (2, 4):
        raise ConfigError(f"layer {name!r}: need a 2- or 4-axis tensor, got {len(w.shape)} axes")
    # in reverse STAGES order whatever the stage list's, so one fixed limit is reported first
    for stage in (s for s in reversed(STAGES) if s in cfg.stage_list):
        try:
            STAGES[stage].check(w, cfg)
        except ConfigError as exc:
            raise ConfigError(f"layer {name!r} ({stage}): {exc}") from None
    bad = w.size - int(np.count_nonzero(np.isfinite(w.data)))
    if bad:
        raise ArchiveError(f"layer {name!r}: {bad} of {w.size} weights are NaN or infinite")


def compress_layer(w: DenseTensor, cfg: LayerConfig, *,
                   checked: bool = False) -> tuple[CompressedLayer, dict]:
    """Run the STAGES record of each stage of cfg.stage_list in order on one
    weight tensor, and store the last one's result as its kind; checked=True
    says the caller has run check_layer_input(w, cfg) already. A fault's
    message is led by the layer and the stage it arose in."""
    if not checked:
        check_layer_input(w, cfg)
    t0 = time.perf_counter()
    current = DenseTensor(as_matrix(w.data))
    stage = res = None
    # w is finite, so only an overflow makes a result not finite: checked, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for next_stage in cfg.stage_list:
                # the matrix next_stage takes: w's, or the one the previous result
                # hands on, checked under the name of the stage that produced it
                if res is not None:
                    current = STAGES[stage].handed(res)
                    if not np.isfinite(current.data).all():
                        raise ConfigError(OVERFLOW)
                stage = next_stage
                res = STAGES[stage].run(current, w, cfg)
            record = STAGES[stage]
            layer = CompressedLayer(cfg.layer_name, record.kind, record.stored(res))
            row = layer_row(w, layer)
            # finite unless the matrix the stored layer stands for is not
            if not np.isfinite(row["recon_error_rel"]):
                raise ConfigError(OVERFLOW)
        except Exception as exc:
            exc.args = (f"layer {cfg.layer_name!r} ({stage}): {exc}",)
            raise
    row["wall_time"] = time.perf_counter() - t0
    return layer, row


def dumps_strict(doc, **options) -> str:
    """json.dumps(doc, **options) as strict JSON, which has no NaN or Infinity:
    each non-finite number in doc is written as null."""
    finite = json.loads(json.dumps(doc), parse_constant=lambda constant: None)
    return json.dumps(finite, allow_nan=False, **options)


@dataclass
class CompressionReport:
    per_layer: list[dict]
    total_ratio: float  # parameters
    total_bytes_ratio: float | None  # archive payload
    config_echo: dict

    def to_json(self) -> str:
        # wall_time is measurement noise; keep it off disk so identical runs
        # serialize byte-identically
        rows = [{k: v for k, v in r.items() if k != "wall_time"} for r in self.per_layer]
        doc = {
            "per_layer": rows,
            "total_ratio": self.total_ratio,
            "total_bytes_ratio": self.total_bytes_ratio,
            "config_echo": self.config_echo,
        }
        return dumps_strict(doc, indent=2, sort_keys=True) + "\n"

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
                # absent from reports written before masks were bit-packed:
                # verify then names the first layer the old archive fails on
                total_bytes_ratio=doc.get("total_bytes_ratio"),
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
        total = "-" if self.total_bytes_ratio is None else f"{self.total_bytes_ratio:.2f}x"
        lines.append(f"total bytes ratio: {total}")
        return "\n".join(lines)


def derive_seed(base_seed: int, layer_name: str, role: str) -> int:
    """Per-(layer, role) seed stream: base xor a stable hash of layer and role."""
    digest = hashlib.sha256(f"{role}:{layer_name}".encode("utf-8")).digest()
    return (base_seed ^ int.from_bytes(digest[:8], "little")) & 0x7FFFFFFFFFFFFFFF


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
        blocks = {"defaults": self.defaults,
                  **{f"layer {name!r}": overrides for name, overrides in self.layers.items()}}
        # a layer's keys: its base seed and LayerConfig's fields but the name
        layer_keys = ["seed", *(f.name for f in fields(LayerConfig)[1:])]
        for where, block in blocks.items():
            _check_keys(where, block, layer_keys)
            for key in BLOCK_CONFIGS:
                if not isinstance(block.get(key, {}), dict):
                    raise ConfigError(f"{where}: {key} must be a JSON object")

    @staticmethod
    def from_json(text: str) -> "PipelineConfig":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(doc) - {f.name for f in fields(PipelineConfig)}
        if unknown:
            raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")
        return PipelineConfig(**doc)

    def resolved(self, layer_name: str, seed_override: int | None = None) -> LayerConfig:
        """The layer's checked config: defaults deep-merged with its overrides,
        and each prune or anneal seed not given derived from the base seed. Every
        value is checked as written, a seed that seed_override replaces too."""
        try:
            merged = _deep_merge(self.defaults, self.layers.get(layer_name, {}))
            for key, cls in BLOCK_CONFIGS.items():
                _check_keys(key, merged.get(key, {}), [f.name for f in fields(cls)])
            seed = merged.pop("seed", 0)
            check_int("seed", seed)  # checked even where seed_override replaces it
            base_seed = seed if seed_override is None else seed_override
            check_int("seed", base_seed)
            stage_list = merged.get("stage_list", tuple(STAGES))
            if not isinstance(stage_list, (list, tuple)):
                raise ConfigError(f"stage_list must be a list, got {stage_list!r}")
            merged["stage_list"] = tuple(stage_list)
            for key in ("anneal", "prune"):  # anneal's value faults surface first
                seed = derive_seed(base_seed, layer_name, key)
                block = BLOCK_CONFIGS[key](**{"seed": seed, **merged.get(key, {})})
                # seed_override replaces a block's own seed once it is checked
                merged[key] = block if seed_override is None else replace(block, seed=seed)
            return LayerConfig(layer_name, **merged)
        except (ConfigError, TypeError) as exc:
            raise ConfigError(f"layer {layer_name!r}: {exc}") from exc

    def echo(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _check_keys(where: str, block, known) -> None:
    """Raise ConfigError unless block is a JSON object of known keys alone."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where}: must be a JSON object")
    unknown = set(block) - set(known)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}; known keys are {list(known)}")


def total_ratio(original: TensorArchive, rows: list[dict], unit: str = "params") -> float:
    """Parameters (unit "params") or payload bytes ("bytes") before over after
    across the archive; entries without a row pass through at their own size."""
    by_name = {r["layer_name"]: r for r in rows}
    before = after = 0
    for name, tensor in original.entries:
        own = tensor.size if unit == "params" else tensor.nbytes
        row = by_name.get(name, {f"{unit}_before": own, f"{unit}_after": own})
        before += row[f"{unit}_before"]
        after += row[f"{unit}_after"]
    return before / after if after else 1.0


@functools.cache
def _blas_thread_setter():
    """openblas_set_num_threads_local of the OpenBLAS numpy loaded, which sets the
    BLAS thread count and returns the old one, or None where there is no such
    symbol (MKL, Accelerate, OpenBLAS before 0.3.27)."""
    try:
        from numpy.linalg import _umath_linalg

        setter = ctypes.CDLL(_umath_linalg.__file__).openblas_set_num_threads_local
    except (ImportError, OSError, AttributeError):
        return None
    setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
    return setter


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with BLAS on one thread (if a setter exists), then restore
    the old count, on return and on raise."""
    setter = _blas_thread_setter()
    old = setter(1) if setter else None
    try:
        yield
    finally:
        if setter:
            setter(old)


def _default_jobs() -> int:
    """One worker per usable CPU; 1 without a BLAS thread setter, since
    parallel layers on a threaded BLAS oversubscribe the cores."""
    if _blas_thread_setter() is None:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _compress_layers(tensors: list[DenseTensor], configs: list[LayerConfig],
                     jobs: int) -> list[tuple[CompressedLayer, dict]]:
    """compress_layer on each layer, already checked, by the calling thread and
    jobs - 1 more threads taking layers in archive order. After a fault no
    layer starts; once every worker has stopped, the fault of the first failing
    layer in archive order is raised, so which fault surfaces does not depend
    on jobs.

    Where the BLAS has a thread setter, every worker runs it on one thread, at
    any jobs: a threaded BLAS sums a dot product in an order that depends on
    its thread count, which moves the report's recon_error_rel in its last bits."""
    results: list = [None] * len(configs)
    faults: dict[int, Exception] = {}
    lock = threading.Lock()
    queue = iter(range(len(configs)))

    def stop():
        nonlocal queue
        with lock:
            queue = iter(())

    def work():
        while True:
            with lock:
                i = next(queue, None)
            if i is None:
                return
            try:
                results[i] = compress_layer(tensors[i], configs[i], checked=True)
            except Exception as exc:
                faults[i] = exc
                stop()

    def pool_thread():
        with _one_blas_thread():
            work()

    # the caller caps first, so where the count is process-wide the pool
    # threads save and restore 1 and only the caller restores the old count
    with _one_blas_thread():
        # daemon: an interrupt of the caller's join must not keep the process alive
        threads = [threading.Thread(target=pool_thread, daemon=True) for _ in range(jobs - 1)]
        for t in threads:
            t.start()
        try:
            work()
        finally:
            stop()  # an interrupt of the caller stops the others too
            for t in threads:
                t.join()
    if faults:
        raise faults[min(faults)]
    return results


def compress_archive(
    archive: TensorArchive,
    config: PipelineConfig,
    jobs: int | None = None,
    seed_override: int | None = None,
) -> tuple[TensorArchive, CompressionReport]:
    """Compress configured layers, up to jobs at once (one per usable CPU if None),
    and pass the rest through unmodified. Every configured layer's config and
    weights are checked before the first layer is compressed.

    While it runs, BLAS is held to one thread where openblas_set_num_threads_local
    exists. With numpy's pthreads OpenBLAS that count is process-wide, so BLAS
    work in other threads of the caller's process also runs on one thread until
    compress_archive returns."""
    if jobs is not None:
        check_int("jobs", jobs, 1)
    missing = [name for name in config.layers if name not in archive]
    if missing:
        raise ConfigError(f"config names layers missing from archive: {missing}")
    configured = [(name, tensor) for name, tensor in archive.entries if name in config.layers]
    configs = [config.resolved(name, seed_override) for name, _ in configured]
    kinds = {c.layer_name: STAGES[c.stage_list[-1]].kind for c in configs}
    planned = _output_names(archive, kinds)
    counts = collections.Counter(n for names in planned.values() for n in names)
    for name in kinds:
        clash = [n for n in planned[name] if counts[n] > 1]
        if clash:
            raise ConfigError(f"layer {name!r}: entry names {clash} collide in the output archive")
    for (_, tensor), cfg in zip(configured, configs):
        check_layer_input(tensor, cfg)
    jobs = max(1, min(_default_jobs() if jobs is None else jobs, len(configs)))
    results = _compress_layers([t for _, t in configured], configs, jobs)
    rows = [row for _, row in results]
    report = CompressionReport(
        per_layer=rows, total_ratio=total_ratio(archive, rows),
        total_bytes_ratio=total_ratio(archive, rows, "bytes"), config_echo=config.echo(),
    )
    layers = {layer.layer_name: layer for layer, _ in results}
    # the original entries in order, each layer's entries in place of its weights
    entries = [e for name, t in archive.entries
               for e in (layers[name].entries() if name in layers else [(name, t)])]
    return TensorArchive(entries=entries), report


def rebuild_layer(original: DenseTensor, compressed: TensorArchive, name: str,
                  kind: str) -> CompressedLayer:
    """Read back the CompressedLayer that entries() stored in the archive. Every
    stored tensor must be of the class KINDS[kind] gives it, checked first, then
    of the shape its shapes give against the original."""
    if kind not in KINDS:
        raise VerificationError(
            f"layer {name!r}: unknown artifact kind {kind!r}; known kinds are {list(KINDS)}")
    if not isinstance(original, DenseTensor) or len(original.shape) not in (2, 4):
        raise VerificationError(
            f"layer {name!r}: original is not an f32 tensor of 2 or 4 axes, which compress takes")
    record = KINDS[kind]
    names = _entry_names(name, kind)
    missing = [n for n in names if n not in compressed]
    if missing:
        raise VerificationError(f"layer {name!r} ({kind}): archive has no {missing}")
    tensors = tuple(compressed.get(n) for n in names)
    for entry, t, (_, cls) in zip(names, tensors, record.entries):
        if not isinstance(t, cls):
            # an f32 mask is what compress wrote before masks were bit-coded
            raise VerificationError(
                f"layer {name!r} ({kind}): {entry} is {t.coded}, not {cls.coded}")
    for entry, t, shape in zip(names, tensors, record.shapes(original.shape, tensors)):
        if t.shape != shape:
            raise VerificationError(f"layer {name!r} ({kind}): {entry} is {t.shape}, not {shape}")
    return CompressedLayer(name, kind, tensors)


def _agrees(got, expected) -> bool:
    """Names and counts must match exactly, in type too: JSON true and 68.0 are
    not the counts 1 and 68. Floats (ratios, errors) agree within 1e-9 relative;
    a recomputed inf or NaN, which compress never reports, agrees with nothing."""
    if not isinstance(expected, float):
        return type(got) is type(expected) and got == expected
    return (isinstance(got, (int, float)) and not isinstance(got, bool) and np.isfinite(expected)
            and abs(got - expected) <= 1e-9 * max(abs(expected), 1.0))


def verify_report(
    original: TensorArchive, compressed: TensorArchive, report: CompressionReport
) -> None:
    """Recompute each row, and the total, from the layers rebuilt from the
    archive; then check that the archive holds exactly the entry names compress
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
        with np.errstate(invalid="ignore"):  # numpy warns as it casts a signaling NaN
            rows.append(layer_row(w, layers[name]))
        for key, want in rows[-1].items():
            if not _agrees(row.get(key), want):
                raise VerificationError(f"{name}.{key}: report {row.get(key)}, recomputed {want}")
    for key, unit in (("total_ratio", "params"), ("total_bytes_ratio", "bytes")):
        want, got = total_ratio(original, rows, unit), getattr(report, key)
        if not _agrees(got, want):
            raise VerificationError(f"{key}: report {got}, recomputed {want}")

    kinds = {name: layer.kind for name, layer in layers.items()}
    expected = [n for names in _output_names(original, kinds).values() for n in names]
    if compressed.names() != expected:
        counts = collections.Counter(expected)
        extra = [n for n in compressed.names() if n not in counts]
        missing = [n for n in counts if n not in compressed]
        repeated = [n for n, c in counts.items() if c > 1]
        raise VerificationError(f"archive entries are not those compress writes, in its order: "
                                f"extra {extra}, missing {missing}, repeated {repeated}")
    for name, tensor in original.entries:
        if name not in layers:
            stored = compressed.get(name)
            # bytes, not values: NaN pass-throughs are legal and equal only so
            if (type(stored) is not type(tensor) or stored.shape != tensor.shape
                    or stored.data.tobytes() != tensor.data.tobytes()):
                raise VerificationError(f"{name}: pass-through entry differs from the original")
