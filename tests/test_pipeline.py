import hashlib
import itertools
import json
import operator
import struct
import sys
import threading
import time

import numpy as np
import pytest

from tensorpress import decompose, factorize, pipeline, prune
from tensorpress.decompose import svd
from tensorpress.errors import ConfigError, DivergenceError, VerificationError
from tensorpress.factorize import AnnealConfig, anneal_factorize
from tensorpress.pipeline import (
    STAGES,
    CompressionReport,
    LayerConfig,
    PipelineConfig,
    compress_archive,
    compress_layer,
    derive_seed,
    layer_row,
    rebuild_layer,
    verify_report,
)
from tensorpress.prune import PruneConfig, iterative_prune
from tensorpress.tensors import (
    BitTensor,
    DenseTensor,
    TensorArchive,
    as_matrix,
    read_archive,
    write_archive,
)


def random_tensor(shape, seed):
    return DenseTensor(np.random.default_rng(seed).standard_normal(shape))


def full_config(**over):
    base = {
        "layer_name": "L",
        "stage_list": ("prune", "decompose", "factorize"),
        "prune": PruneConfig(alpha=0.2, stages=2, seed=0),
        "rank_svd": 4,
        "anneal": AnnealConfig(rank=4, seed=0),
    }
    base.update(over)
    return LayerConfig(**base)


class TestLayerConfig:
    def test_rejects_empty_and_duplicate_stages(self):
        with pytest.raises(ConfigError):
            full_config(stage_list=())
        with pytest.raises(ConfigError):
            full_config(stage_list=("prune", "prune"))
        with pytest.raises(ConfigError):
            full_config(stage_list=("prune", "mystery"))

    def test_requires_stage_parameters(self):
        with pytest.raises(ConfigError):
            full_config(stage_list=("decompose",), rank_svd=None)
        with pytest.raises(ConfigError):
            full_config(stage_list=("factorize",), anneal=AnnealConfig())

    def test_rejects_anneal_block_of_another_type(self):
        with pytest.raises(ConfigError, match="anneal: expected AnnealConfig, got None"):
            LayerConfig("L", stage_list=("prune", "factorize"), anneal=None)

    def test_rejects_prune_block_of_another_type(self):
        with pytest.raises(ConfigError, match="prune: expected PruneConfig, got None"):
            LayerConfig("L", stage_list=("prune",), prune=None)


class TestCompressLayer:
    def test_decompose_full_rank_is_lossless_and_anti_compressive(self):
        w = random_tensor((8, 8), 0)
        layer, row = compress_layer(
            w, full_config(stage_list=("decompose",), rank_svd=8)
        )
        assert row["ratio"] < 1.0
        assert row["recon_error_rel"] < 1e-5

    def test_paper_style_settings_row(self):
        w = random_tensor((64, 64), 1)
        cfg = full_config(
            prune=PruneConfig(alpha=0.1417, stages=1, seed=5),
            rank_svd=41,
            anneal=AnnealConfig(rank=41, seed=5),
        )
        layer, row = compress_layer(w, cfg)
        assert row["params_after"] == 41 * 128
        assert np.isfinite(row["recon_error_rel"])
        # reproducible by seed
        _, row2 = compress_layer(w, cfg)
        assert row2["recon_error_rel"] == row["recon_error_rel"]

    def test_factorize_only_identity(self):
        w = DenseTensor(np.eye(8))
        cfg = full_config(stage_list=("factorize",), anneal=AnnealConfig(rank=8, seed=0))
        layer, row = compress_layer(w, cfg)
        assert row["params_after"] == 8 * 16 == 128
        assert row["recon_error_rel"] < 1e-3

    def test_prune_only_artifact(self):
        w = random_tensor((10, 10), 2)
        cfg = full_config(stage_list=("prune",), prune=PruneConfig(alpha=0.4, seed=0))
        layer, row = compress_layer(w, cfg)
        assert layer.kind == "masked"
        assert row["params_after"] == int(layer.mask.sum())
        assert row["mask_bits"] == 100
        # stored: the kept weights alone, in C flat order, and the mask as bits
        kept = layer.mask.astype(bool)
        values, _ = layer.tensors
        assert values.data.tobytes() == w.data[kept].tobytes()
        assert np.array_equal(layer.masked.data, np.where(kept, w.data, 0))
        assert row["bytes_before"] == 400
        assert row["bytes_after"] == 4 * int(kept.sum()) + 13
        (_, stored_values), (_, stored_mask) = layer.entries()
        assert stored_values is values
        assert isinstance(stored_mask, BitTensor) and np.array_equal(stored_mask.data, layer.mask)

    @pytest.mark.parametrize("shape", [(12, 9), (4, 3, 3, 3)])
    @pytest.mark.parametrize("case", ["kept", "moved", "factored"])
    def test_masked_recon_error_equals_dense_error(self, shape, case):
        # every kind's row is ||w - E|| / ||w||, with E built here from the
        # stored tensors; compress stores a masked layer's kept weights, but
        # verify rebuilds whatever the archive holds, so "moved" values differ
        rng = np.random.default_rng(len(shape))
        data = rng.standard_normal(shape).astype(np.float32)
        data.flat[::5] = -0.0
        w = DenseTensor(data)
        a = w.data.reshape(shape[0], -1).astype(np.float64)
        m, n = a.shape
        kind = "masked" if case in ("kept", "moved") else case
        for seed in range(5):
            r = np.random.default_rng(seed)
            mask = (r.random(shape) < 0.6).astype(np.uint8)
            if kind == "masked":
                values = data[mask == 1]
                if case == "moved":
                    values = values + r.standard_normal(values.size)
                    values[::3] = -0.0
                tensors = (DenseTensor(values), BitTensor(mask))
                e = np.zeros(shape)
                e[mask == 1] = tensors[0].data
            else:
                tensors = tuple(DenseTensor(r.standard_normal(s)) for s in ((m, 3), (3, n)))
                w1, w2 = (t.data.astype(np.float64) for t in tensors)
                e = w1 @ w2
                mask = None
            e = e.reshape(m, n).astype(np.float64)
            layer = pipeline.CompressedLayer("L", kind, tensors)
            want = float(np.linalg.norm(a - e) / np.linalg.norm(a))
            assert pipeline.relative_recon_error(w, layer) == want

    @pytest.mark.parametrize("kind, tensors", [
        ("factored", lambda w, mask: (w, w, BitTensor(mask))),  # a mask beside the pair
        ("factored", lambda w, mask: (w,)),
        ("masked", lambda w, mask: (w, DenseTensor(mask))),  # an f32 mask
        ("masked", lambda w, mask: (w,)),
    ])
    def test_layer_holds_exactly_its_kinds_entries(self, kind, tensors):
        # else entries() would drop a tensor that layer_row counts
        w, mask = DenseTensor(np.ones((4, 4))), np.eye(4, dtype=bool)
        with pytest.raises(TypeError, match=f"a {kind} layer holds"):
            pipeline.CompressedLayer("L", kind, tensors(w, mask))

    def test_conv_tensor_flattened(self):
        w = random_tensor((6, 2, 3, 3), 3)
        layer, row = compress_layer(w, full_config(rank_svd=3, anneal=AnnealConfig(rank=3, seed=0)))
        assert layer.factors.w1.shape == (6, 3)
        assert layer.factors.w2.shape == (3, 18)
        assert layer.mask is None  # the prune stage before decompose stores no mask

    @pytest.mark.parametrize("stage_list", [("decompose",), ("prune", "decompose"),
                                            ("factorize", "decompose")])
    def test_decompose_last_stores_u_sigma_and_v_transposed(self, monkeypatch, stage_list):
        # w1 = u diag(sigma) from the f32 u and the f64 sigma, and w2 = v^T, each
        # rounded to f32, of the leading rank_svd triples of the matrix decompose
        # takes, which are all it asks svd for
        taken = []
        real_svd = decompose.svd
        monkeypatch.setattr(decompose, "svd",
                            lambda w, rank=None: taken.append((w, rank)) or real_svd(w, rank))
        archive = TensorArchive(entries=[("L", random_tensor((6, 2, 3, 3), 4))])
        config = PipelineConfig(defaults={
            "stage_list": list(stage_list), "prune": {"alpha": 0.2, "stages": 2},
            "rank_svd": 3, "anneal": {"rank": 4}}, layers={"L": {}})
        out, report = compress_archive(archive, config)
        ((matrix, rank),) = taken
        assert matrix.shape == (6, 18) and rank == 3
        f = real_svd(matrix, 3)
        assert report.per_layer[0]["kind"] == "factored"
        assert report.per_layer[0]["params_after"] == 3 * (6 + 18)
        assert out.get("L.w1").data.tobytes() == DenseTensor(f.u.data * f.sigma).data.tobytes()
        assert out.get("L.w2").data.tobytes() == DenseTensor(f.v.data.T).data.tobytes()
        verify_report(archive, read_archive(write_archive(out)), report)

    @pytest.mark.parametrize("rank_svd, asked", [(2, 2), (6, 6), (50, 6)])
    def test_decompose_asks_svd_for_its_kept_triples_alone(self, monkeypatch, rank_svd, asked):
        # min(rank_svd, m, n) of the 6 x 18 conv matrix, never all of them
        ranks = []
        real_svd = decompose.svd
        monkeypatch.setattr(decompose, "svd",
                            lambda w, rank=None: ranks.append(rank) or real_svd(w, rank))
        layer, _ = compress_layer(random_tensor((6, 2, 3, 3), 7),
                                  full_config(stage_list=("decompose",), rank_svd=rank_svd))
        assert ranks == [asked] and layer.tensors[0].shape == (6, asked)

    @pytest.mark.parametrize("shape", [(13, 11), (6, 5, 3, 3)])
    def test_kept_indices_same_for_pruned_and_stored_mask(self, shape):
        mask = iterative_prune(random_tensor(shape, 5), PruneConfig(alpha=0.55, stages=2, seed=1)).mask
        stored = read_archive(write_archive(TensorArchive(entries=[("m", BitTensor(mask))])))
        kept = pipeline._kept(mask)
        assert np.array_equal(pipeline._kept(stored.get("m").data), kept)
        assert np.array_equal(kept, np.nonzero(mask.ravel() == 1)[0])

    def test_errors_name_the_layer(self):
        w = DenseTensor(np.ones((8,)))
        with pytest.raises(Exception, match="'L'"):
            compress_layer(w, full_config())
        # a stage's error names the stage too
        cfg = full_config(stage_list=("prune", "factorize"),
                          anneal=AnnealConfig(rank=2, eta0=1e300, seed=0))
        message = r"^layer 'L' \(factorize\): loss became non-finite at iteration 0$"
        with np.errstate(all="ignore"), pytest.raises(DivergenceError, match=message):
            compress_layer(random_tensor((8, 8), 6), cfg)


def build_archive_and_config():
    entries = [
        ("a", random_tensor((32, 32), 0)),
        ("b", random_tensor((4, 4, 3, 3), 1)),
        ("passthrough", random_tensor((7, 5), 2)),
    ]
    archive = TensorArchive(entries=entries)
    config = PipelineConfig.from_json(json.dumps({
        "defaults": {
            "seed": 9,
            "stage_list": ["prune", "decompose", "factorize"],
            "prune": {"alpha": 0.25, "stages": 2, "entangle_prob": 0.1},
            "rank_svd": 4,
            "anneal": {"rank": 4},
        },
        "layers": {"a": {}, "b": {"rank_svd": 3, "anneal": {"rank": 3}}},
    }))
    return archive, config


def prune_only_archive(names):
    """4 x 4 layers under a prune-only config."""
    archive = TensorArchive(entries=[(n, random_tensor((4, 4), i)) for i, n in enumerate(names)])
    return archive, PipelineConfig(defaults={"stage_list": ["prune"]},
                                   layers={n: {} for n in names})


def run_before_each_layer(monkeypatch, before):
    """Make compress_archive call before(cfg) ahead of each compress_layer."""
    real = pipeline.compress_layer

    def wrapped(w, cfg, **kw):
        before(cfg)
        return real(w, cfg, **kw)

    monkeypatch.setattr(pipeline, "compress_layer", wrapped)


class TestCompressArchive:
    def test_empty_config_is_noop(self):
        archive, _ = build_archive_and_config()
        out, report = compress_archive(archive, PipelineConfig())
        assert report.total_ratio == 1.0
        assert write_archive(out) == write_archive(archive)

    def test_unknown_layer_listed(self):
        archive, _ = build_archive_and_config()
        cfg = PipelineConfig(defaults={}, layers={"ghost": {}})
        with pytest.raises(ConfigError, match="ghost"):
            compress_archive(archive, cfg)

    def test_totals_match_hand_arithmetic(self):
        archive, config = build_archive_and_config()
        out, report = compress_archive(archive, config)
        before = sum(r["params_before"] for r in report.per_layer) + 35
        after = sum(r["params_after"] for r in report.per_layer) + 35
        assert report.total_ratio == pytest.approx(before / after)
        before = sum(r["bytes_before"] for r in report.per_layer) + 4 * 35
        after = sum(r["bytes_after"] for r in report.per_layer) + 4 * 35
        assert report.total_bytes_ratio == pytest.approx(before / after)

    def test_bytes_are_the_written_payload(self):
        """Each row's bytes_after, plus the pass-throughs, sum to the written
        file's size less its headers; bytes_before likewise for the input."""
        archive, config = build_archive_and_config()
        archive.entries.append(("c", random_tensor((5, 7), 6)))
        config.layers["c"] = {"stage_list": ["prune"]}  # 35 mask bits: padding
        config.layers["d"] = {"stage_list": ["decompose"]}
        archive.entries.append(("d", random_tensor((9, 6), 7)))
        archive = TensorArchive(entries=archive.entries)
        out, report = compress_archive(archive, config)
        assert [r["kind"] for r in report.per_layer] == ["factored", "factored", "masked", "factored"]

        def payload(arc):
            headers = 12 + sum(4 + len(n.encode()) + 4 + 8 * len(t.shape) + 4
                               for n, t in arc.entries)
            return len(write_archive(arc)) - headers

        passthrough = archive.get("passthrough").nbytes
        assert payload(out) == sum(r["bytes_after"] for r in report.per_layer) + passthrough
        assert payload(archive) == sum(r["bytes_before"] for r in report.per_layer) + passthrough
        assert report.total_bytes_ratio == payload(archive) / payload(out)
        verify_report(archive, read_archive(write_archive(out)), report)
        report.total_bytes_ratio *= 1.01
        with pytest.raises(VerificationError, match="total_bytes_ratio"):
            verify_report(archive, out, report)

    def test_bit_tensor_layer_rejected(self):
        archive = TensorArchive(entries=[("m", BitTensor(np.ones((4, 4))))])
        config = PipelineConfig(defaults={"stage_list": ["prune"]}, layers={"m": {}})
        with pytest.raises(ConfigError, match="layer 'm': is a bit tensor"):
            compress_archive(archive, config)

    def test_passthrough_bit_identical(self):
        archive, config = build_archive_and_config()
        out, _ = compress_archive(archive, config)
        assert out.get("passthrough").data.tobytes() == archive.get("passthrough").data.tobytes()

    def test_each_layer_checked_once(self, monkeypatch):
        archive, config = build_archive_and_config()
        checked = []
        real = pipeline.check_layer_input

        def counting(w, cfg):
            checked.append(cfg.layer_name)
            real(w, cfg)

        monkeypatch.setattr(pipeline, "check_layer_input", counting)
        compress_archive(archive, config)
        assert sorted(checked) == sorted(config.layers)
        # a direct call still checks its input
        compress_layer(archive.get("a"), config.resolved("a"))
        assert checked.count("a") == 2

    def test_deterministic_across_jobs(self):
        archive, config = build_archive_and_config()
        # past 10,000 weights OpenBLAS splits a dot product over its threads
        archive.entries.append(("big", random_tensor((256, 256), 3)))
        config.layers["big"] = {"stage_list": ["prune"]}  # three configured layers
        archive = TensorArchive(entries=archive.entries)
        setter = pipeline._blas_thread_setter()
        # a threaded BLAS must not reach jobs=1 and change the report's last bits
        old = setter(2) if setter else None
        try:
            out1, rep1 = compress_archive(archive, config, jobs=1)
        finally:
            if setter:
                setter(old)
        for jobs in (2, 4, None):  # 4 is past the layer count, None the default
            out, rep = compress_archive(archive, config, jobs=jobs)
            assert write_archive(out1) == write_archive(out), jobs
            assert rep1.to_json() == rep.to_json(), jobs

    def test_jobs_1_runs_every_layer_on_the_calling_thread(self, monkeypatch):
        threads = []
        run_before_each_layer(monkeypatch, lambda cfg: threads.append(threading.get_ident()))
        archive, config = build_archive_and_config()
        compress_archive(archive, config, jobs=1)
        assert threads == [threading.get_ident()] * 2

    def test_no_blas_thread_setter_runs_every_layer_on_the_calling_thread(self, monkeypatch):
        # without a setter (MKL, Accelerate) the default is one job: parallel
        # layers on a threaded BLAS would oversubscribe the cores
        archive, config = build_archive_and_config()
        want = write_archive(compress_archive(archive, config, jobs=1)[0])
        monkeypatch.setattr(pipeline, "_blas_thread_setter", lambda: None)
        threads = []
        run_before_each_layer(monkeypatch, lambda cfg: threads.append(threading.get_ident()))
        out, _ = compress_archive(archive, config)
        assert threads == [threading.get_ident()] * 2
        assert write_archive(out) == want

    @pytest.mark.parametrize("cpus, jobs", [(3, 3), (None, 1)])
    def test_default_jobs_without_affinity_counts_cpus(self, monkeypatch, cpus, jobs):
        monkeypatch.setattr(pipeline, "_blas_thread_setter", lambda: lambda count: 1)
        monkeypatch.delattr(pipeline.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(pipeline.os, "cpu_count", lambda: cpus)
        assert pipeline._default_jobs() == jobs

    def test_jobs_2_is_the_caller_and_one_more_thread(self, monkeypatch):
        threads = []
        # the first two layers wait for each other, so two threads must run them
        both_started = threading.Barrier(2, timeout=10)

        def record(cfg):
            threads.append(threading.get_ident())
            if len(threads) <= 2:
                both_started.wait()

        run_before_each_layer(monkeypatch, record)
        compress_archive(*prune_only_archive(["x", "y", "z"]), jobs=2)
        assert len(threads) == 3
        assert threading.get_ident() in threads and len(set(threads)) == 2

    def test_many_workers_take_each_layer_once(self, monkeypatch):
        calls = []
        run_before_each_layer(monkeypatch, lambda cfg: calls.append(cfg.layer_name))
        names = [f"l{i:02d}" for i in range(48)]
        archive, config = prune_only_archive(names)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so a lost claim would show
        try:
            out, report = compress_archive(archive, config, jobs=12)
        finally:
            sys.setswitchinterval(old)
        assert sorted(calls) == names
        assert [r["layer_name"] for r in report.per_layer] == names
        serial, _ = compress_archive(archive, config, jobs=1)
        assert write_archive(out) == write_archive(serial)

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_interrupt_stops_every_worker(self, monkeypatch, jobs):
        calls = []
        caller = threading.get_ident()

        def interrupt_caller(cfg):
            calls.append(cfg.layer_name)
            if threading.get_ident() == caller:  # signals reach only the main thread
                raise KeyboardInterrupt
            time.sleep(0.2)  # long past the interrupt, so a later start would show

        run_before_each_layer(monkeypatch, interrupt_caller)
        names = [f"l{i}" for i in range(8)]
        with pytest.raises(KeyboardInterrupt):
            compress_archive(*prune_only_archive(names), jobs=jobs)
        assert sorted(calls) == names[:len(calls)] and len(calls) <= jobs

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("fail", [False, True], ids=["return", "raise"])
    def test_blas_thread_count_restored(self, fail, jobs):
        setter = pipeline._blas_thread_setter()
        if setter is None:
            pytest.skip("numpy's BLAS has no per-thread count setter")
        archive, config = build_archive_and_config()
        if fail:
            config.layers["b"] = {"prune": {"alpha": 0.99}, "stage_list": ["prune"]}
        old = setter(3)
        try:
            if fail:
                with pytest.raises(ConfigError, match="leaves none"):
                    compress_archive(archive, config, jobs=jobs)
            else:
                compress_archive(archive, config, jobs=jobs)
        finally:
            assert setter(old) == 3

    def test_verify_clean_and_tampered(self):
        archive, config = build_archive_and_config()
        out, report = compress_archive(archive, config)
        out = read_archive(write_archive(out))  # through the wire format
        report = CompressionReport.from_json(report.to_json())
        verify_report(archive, out, report)
        report.per_layer[0]["ratio"] *= 1.01
        with pytest.raises(VerificationError, match="ratio"):
            verify_report(archive, out, report)

    def test_masked_layer_needs_its_mask(self):
        archive, _ = build_archive_and_config()
        config = PipelineConfig(defaults={"stage_list": ["prune"]}, layers={"a": {}})
        out, report = compress_archive(archive, config)
        out = TensorArchive(entries=[(n, t) for n, t in out.entries if n != "a.mask"])
        with pytest.raises(VerificationError, match="a.mask"):
            verify_report(archive, out, report)


# every non-empty ordered list of distinct stages: 3 + 6 + 6 = 15
STAGE_LISTS = [list(p) for k in (1, 2, 3) for p in itertools.permutations(STAGES, k)]


def mixed_archive_and_config(stage_list):
    """A 2-axis fc and a 4-axis conv, both compressed under stage_list, around
    a pass-through bias."""
    archive = TensorArchive(entries=[
        ("fc", random_tensor((24, 20), 4)),
        ("bias", random_tensor((20,), 6)),
        ("conv", random_tensor((6, 3, 3, 3), 5)),
    ])
    config = PipelineConfig(defaults={
        "seed": 3,
        "stage_list": stage_list,
        "prune": {"alpha": 0.3, "stages": 2, "entangle_prob": 0.1},
        "rank_svd": 5,
        "anneal": {"rank": 5, "max_iters": 200},
    }, layers={"fc": {}, "conv": {}})
    return archive, config


@pytest.mark.parametrize("stage_list", STAGE_LISTS, ids="-".join)
def test_report_rows_equal_stored_layer_rows(stage_list):
    # compress computes each row from the layer in memory, never reading it
    # back; the row must still be the one rebuilt from the stored bytes
    archive, config = mixed_archive_and_config(stage_list)
    out, report = compress_archive(archive, config)
    out = read_archive(write_archive(out))
    assert [r["layer_name"] for r in report.per_layer] == ["fc", "conv"]
    for row in report.per_layer:
        w = archive.get(row["layer_name"])
        stored = rebuild_layer(w, out, row["layer_name"], row["kind"])
        assert {k: v for k, v in row.items() if k != "wall_time"} == layer_row(w, stored)


@pytest.mark.parametrize("stage_list", STAGE_LISTS, ids="-".join)
def test_written_names_are_the_plan(stage_list):
    # the names verify expects are the ones written
    archive, config = mixed_archive_and_config(stage_list)
    out, _ = compress_archive(archive, config)
    kind = pipeline.STAGES[stage_list[-1]].kind
    planned = pipeline._output_names(archive, {"fc": kind, "conv": kind})
    assert out.names() == [n for names in planned.values() for n in names]


@pytest.mark.parametrize("stage_list", STAGE_LISTS, ids="-".join)
def test_mask_stored_only_where_prune_is_last(stage_list):
    # prune before decompose or factorize only shapes the factors: the layer
    # is then the plain factored pair, whose product is w1 @ w2 in float64
    archive, config = mixed_archive_and_config(stage_list)
    out, report = compress_archive(archive, config)
    out = read_archive(write_archive(out))
    masked = stage_list[-1] == "prune"
    for row in report.per_layer:
        name = row["layer_name"]
        assert (name + ".mask" in out) == masked
        # the row describes the archive for every kind: its bytes and bits are
        # the compressed layer's entries', which the layer read back holds
        entries = compress_layer(archive.get(name), config.resolved(name))[0].entries()
        assert row["bytes_after"] == sum(t.nbytes for _, t in entries)
        assert row["mask_bits"] == sum(t.size for _, t in entries if isinstance(t, BitTensor))
        layer = rebuild_layer(archive.get(name), out, name, row["kind"])
        assert layer.entries() == entries
        if not masked:
            w1, w2 = (out.get(name + s).data.astype(np.float64) for s in (".w1", ".w2"))
            assert row["mask_bits"] == 0 and layer.mask is None
            assert layer.effective_matrix().tobytes() == (w1 @ w2).tobytes()
    verify_report(archive, out, report)


def _compress_layer_oracle(w, cfg, *, checked=False):
    """compress_layer as it was when each stage branch built the dense matrix
    the next stage takes, behind a flag saying whether one runs, with the
    factored product written out as w1 @ w2 in float64, decompose handing on
    the product of the pair it stores, the mask stored only where prune is
    last, and factorize started from that pair only where decompose directly
    precedes it. It builds the stored tensors itself, apart from the STAGES
    records. Kept as the reference that compress_layer must match byte for
    byte."""
    if not checked:
        pipeline.check_layer_input(w, cfg)
    t0 = time.perf_counter()
    current = DenseTensor(as_matrix(w.data))
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for i, stage in enumerate(cfg.stage_list):
                more = i + 1 < len(cfg.stage_list)
                if stage == "prune":
                    x = current.reshape(w.shape).data
                    res = iterative_prune(DenseTensor(x), cfg.prune)
                    mask = res.mask
                    if not mask.any():
                        raise ConfigError(
                            f"leaves none of its {w.size} weights "
                            f"(alpha {cfg.prune.alpha}, entangle_prob {cfg.prune.entangle_prob})"
                        )
                    pruned = x * mask
                    current = DenseTensor(as_matrix(pruned))
                    stored = (DenseTensor(pruned[mask != 0]), BitTensor(mask))
                elif stage == "decompose":
                    full = svd(current)
                    r = min(cfg.rank_svd, full.rank)
                    pair = stored = (DenseTensor(full.u.data[:, :r] * full.sigma[:r]),
                                     DenseTensor(full.v.data[:, :r].T))
                    if more:
                        current = DenseTensor(pair[0].data.astype(np.float64)
                                              @ pair[1].data.astype(np.float64))
                else:
                    # from the f32 pair decompose stores, when decompose ran just before
                    start = pair if i and cfg.stage_list[i - 1] == "decompose" else None
                    res = anneal_factorize(current, cfg.anneal, start)
                    stored = (res.w1, res.w2)
                    if more:
                        current = DenseTensor(res.w1.data.astype(np.float64)
                                              @ res.w2.data.astype(np.float64))
                if more and not np.isfinite(current.data).all():
                    raise ConfigError(pipeline.OVERFLOW)
            kind = "masked" if stage == "prune" else "factored"
            layer = pipeline.CompressedLayer(cfg.layer_name, kind, stored)
            row = layer_row(w, layer)
            if not np.isfinite(row["recon_error_rel"]):
                raise ConfigError(pipeline.OVERFLOW)
        except Exception as exc:
            exc.args = (f"layer {cfg.layer_name!r} ({stage}): {exc}",)
            raise
    row["wall_time"] = time.perf_counter() - t0
    return layer, row


@pytest.mark.parametrize("stage_list", STAGE_LISTS, ids="-".join)
def test_all_zero_layers_store_zero_and_verify(stage_list):
    # an anneal from random factors would store a small nonzero product
    # that an error of 0 for an all-zero layer hid
    archive = TensorArchive(entries=[("fc", DenseTensor(np.zeros((8, 8)))),
                                     ("conv", DenseTensor(np.zeros((4, 2, 3, 3))))])
    config = PipelineConfig(defaults={
        "stage_list": stage_list, "prune": {"alpha": 0.3, "stages": 2},
        "rank_svd": 3, "anneal": {"rank": 3}}, layers={"fc": {}, "conv": {}})
    out, report = compress_archive(archive, config)
    out = read_archive(write_archive(out))
    for row in report.per_layer:
        name = row["layer_name"]
        assert not rebuild_layer(archive.get(name), out, name, row["kind"]).effective_matrix().any()
        assert row["recon_error_rel"] == 0.0
    verify_report(archive, out, report)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("stage_list", STAGE_LISTS, ids="-".join)
def test_archive_and_report_bytes_equal_oracle(monkeypatch, stage_list, jobs):
    # an oracle, not pinned digests: SVD and anneal payloads follow the BLAS build
    archive, config = mixed_archive_and_config(stage_list)
    out, report = compress_archive(archive, config, jobs=jobs)
    monkeypatch.setattr(pipeline, "compress_layer", _compress_layer_oracle)
    want_out, want_report = compress_archive(archive, config, jobs=jobs)
    assert write_archive(out) == write_archive(want_out)
    assert report.to_json() == want_report.to_json()


@pytest.mark.parametrize("stage_list", [None, ["prune"]], ids=["default", "prune"])
def test_stage_records_look_up_module_functions_as_they_run(monkeypatch, stage_list):
    # a probe that replaces a stage's function after import, as perfbench's
    # traced runs do, must see each call; a record holding the function
    # itself would call the original past it
    archive, config = build_archive_and_config()
    del config.defaults["stage_list"]
    if stage_list:
        config.defaults["stage_list"] = stage_list
    calls = []
    for module, name in [(prune, "iterative_prune"), (decompose, "svd"),
                         (factorize, "anneal_factorize")]:
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, real=real, name=name: calls.append(name) or real(*a))
    compress_archive(archive, config)
    functions = {"prune": ["iterative_prune"], "decompose": ["svd"],
                 "factorize": ["anneal_factorize"]}
    want = [f for s in stage_list or STAGES for f in functions[s]] * len(config.layers)
    assert sorted(calls) == sorted(want)


@pytest.mark.parametrize("stage_list", STAGE_LISTS, ids="-".join)
def test_each_stage_takes_the_matrix_of_the_layer_before(monkeypatch, stage_list):
    # the one rule for what passes between stages: the first takes w's m x n
    # matrix and each later one that of the layer the previous stage returned,
    # rounded to f32, with that layer as prev; the last one's layer is stored.
    # A prune's pruned weights hold -0.0 where its layer's matrix holds +0.0
    archive, config = mixed_archive_and_config(stage_list)
    calls = []
    for stage, record in STAGES.items():
        def run(current, w, cfg, prev, record=record):
            tensors = record.run(current, w, cfg, prev)
            calls.append((cfg.layer_name, record.kind, current, prev, tensors))
            return tensors

        monkeypatch.setitem(STAGES, stage, record._replace(run=run))
    out, _ = compress_archive(archive, config, jobs=1)
    for name in config.layers:
        want, layer = DenseTensor(as_matrix(archive.get(name).data)), None
        runs = [c[1:] for c in calls if c[0] == name]
        assert len(runs) == len(stage_list)
        for kind, current, prev, tensors in runs:
            assert current.shape == want.shape
            assert current.data.tobytes() == want.data.tobytes()
            if layer is None:
                assert prev is None
            else:
                assert prev.kind == layer.kind
                assert all(map(operator.is_, prev.tensors, layer.tensors))
            layer = pipeline.CompressedLayer(name, kind, tensors)
            want = DenseTensor(layer.effective_matrix())
        assert [t.data.tobytes() for t in layer.tensors] == [
            out.get(n).data.tobytes() for n, _ in layer.entries()]


def _warm_layers(w, rank_svd, rank, stage_list=("decompose", "factorize")):
    """compress_layer under stage_list with the given ranks, and under
    stage_list without its factorize at the lower of the two ranks, whose
    pair the first one starts from."""
    cfg = LayerConfig("fc", stage_list, rank_svd=rank_svd,
                      anneal=AnnealConfig(rank=rank, seed=3))
    alone = LayerConfig("fc", stage_list[:-1], rank_svd=min(rank_svd, rank))
    return compress_layer(w, cfg), compress_layer(w, alone)


@pytest.mark.parametrize("shape", [(40, 30), (12, 4, 3, 3)])
@pytest.mark.parametrize("stage_list", [("decompose", "factorize"),
                                        ("prune", "decompose", "factorize")], ids="-".join)
def test_factorize_after_decompose_keeps_its_pair(monkeypatch, shape, stage_list):
    # the pair decompose stores fits the rank-r matrix it hands on to f32
    # rounding, so factorize starts at the floor, takes no step and stores it
    w = random_tensor(shape, 31)
    pairs = []
    real = factorize.anneal_factorize
    monkeypatch.setattr(factorize, "anneal_factorize",
                        lambda *a: pairs.append(real(*a)) or pairs[-1])
    (layer, row), (alone, alone_row) = _warm_layers(w, 6, 6, stage_list)
    assert [len(pair.loss_trace) for pair in pairs] == [1]
    assert [t.data.tobytes() for t in layer.tensors] == [t.data.tobytes() for t in alone.tensors]
    assert row["recon_error_rel"] == alone_row["recon_error_rel"]


def test_factorize_below_decompose_rank_meets_decompose_at_its_rank():
    # the leading columns of the pair are decompose's at the lower rank, which
    # fits the rank-r product best (Eckart-Young) up to f32 rounding
    w = random_tensor((40, 30), 32)
    (layer, row), (alone, alone_row) = _warm_layers(w, 10, 4)
    assert layer.tensors[0].shape == (40, 4) and layer.tensors[1].shape == (4, 30)
    assert abs(row["recon_error_rel"] - alone_row["recon_error_rel"]) <= 1e-9


def test_factorize_above_decompose_rank_pads_with_zeros():
    w = random_tensor((40, 30), 33)
    (layer, row), (alone, alone_row) = _warm_layers(w, 5, 9)
    w1, w2 = (t.data for t in layer.tensors)
    assert w1.shape == (40, 9) and w2.shape == (9, 30)
    assert not w1[:, 5:].any() and not w2[5:].any()
    assert w1[:, :5].tobytes() == alone.tensors[0].data.tobytes()
    assert w2[:5].tobytes() == alone.tensors[1].data.tobytes()
    # the zero terms change no product, but a BLAS may sum the rest in another order
    assert row["recon_error_rel"] == pytest.approx(alone_row["recon_error_rel"], rel=1e-12)


@pytest.mark.parametrize("stage_list", [("factorize",), ("prune", "factorize"),
                                        ("factorize", "decompose")], ids="-".join)
def test_factorize_not_after_decompose_starts_at_random(monkeypatch, stage_list):
    # only decompose's result gives factorize a start
    starts = []
    real = factorize.anneal_factorize
    monkeypatch.setattr(factorize, "anneal_factorize",
                        lambda *a: starts.append(a[2]) or real(*a))
    compress_layer(random_tensor((20, 16), 34),
                   LayerConfig("fc", stage_list, rank_svd=4, anneal=AnnealConfig(rank=4)))
    assert starts == [None]


class TestConfigResolution:
    def test_seed_override_changes_streams(self):
        _, config = build_archive_and_config()
        a = config.resolved("a")
        b = config.resolved("a", seed_override=123)
        assert a.prune.seed != b.prune.seed

    def test_per_layer_seeds_differ(self):
        assert derive_seed(0, "a", "prune") != derive_seed(0, "b", "prune")
        assert derive_seed(0, "a", "prune") != derive_seed(0, "a", "anneal")

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_json('{"default": {}}')

    def test_missing_anneal_rank_rejected(self):
        cfg = PipelineConfig(defaults={"stage_list": ["factorize"]}, layers={"x": {}})
        with pytest.raises(ConfigError, match="rank"):
            cfg.resolved("x")


def test_report_json_round_trip_and_excludes_wall_time():
    archive, config = build_archive_and_config()
    _, report = compress_archive(archive, config)
    doc = json.loads(report.to_json())
    assert all("wall_time" not in row for row in doc["per_layer"])
    back = CompressionReport.from_json(report.to_json())
    assert back.total_ratio == report.total_ratio
    assert back.to_json() == report.to_json()
    # a report from before masks were bit-packed has no total_bytes_ratio
    old = CompressionReport.from_json('{"per_layer": [], "total_ratio": 1.0}')
    assert old.total_bytes_ratio is None
    assert old.table().endswith("total ratio: 1.00x\ntotal bytes ratio: -")


def _formula_tensor(shape, offset):
    """Weights from integer arithmetic alone, exact in f32 on any platform."""
    i = np.arange(int(np.prod(shape)), dtype=np.int64)
    return DenseTensor((((i * 40503 + offset) % 997 - 498) / 64).reshape(shape))


def test_prune_only_archive_bytes_pinned():
    # The prune path does no BLAS or transcendental arithmetic, so its bytes
    # are the same on every platform; the digest pins the entanglement draws
    # (pair order included), the tie order and the archive layout.
    archive = TensorArchive(entries=[
        ("conv_a", _formula_tensor((12, 8, 3, 3), 1)),
        ("bias", _formula_tensor((40,), 2)),
        ("conv_b", _formula_tensor((8, 6, 5, 4), 3)),
        ("fc", _formula_tensor((24, 40), 4)),
    ])
    config = PipelineConfig(
        defaults={"seed": 13, "stage_list": ["prune"],
                  "prune": {"alpha": 0.45, "stages": 4, "entangle_prob": 0.1}},
        layers={"conv_a": {}, "conv_b": {}, "fc": {}},
    )
    out, report = compress_archive(archive, config)
    # entanglement pruned beyond alpha's 475, 528 and 528 kept weights
    assert [r["params_after"] for r in report.per_layer] == [419, 464, 474]
    digest = hashlib.sha256(write_archive(out)).hexdigest()
    assert digest == "b1ab5157ac2d7f4e72b0db119f3e65a059bdcbc59ec297c92dfe8c7b7ced785f"


def _layout(raw: bytes) -> list[tuple[str, tuple[int, ...], int]]:
    """(name, dims, dtype code) of each entry of a serialized archive, read
    from its headers as the format defines them."""
    (count,), pos, out = struct.unpack_from("<I", raw, 8), 12, []
    for _ in range(count):
        (size,) = struct.unpack_from("<I", raw, pos)
        name = raw[pos + 4:pos + 4 + size].decode()
        (axes,) = struct.unpack_from("<I", raw, pos + 4 + size)
        dims = struct.unpack_from(f"<{axes}Q", raw, pos + 8 + size)
        pos += 8 + size + 8 * axes
        (code,) = struct.unpack_from("<I", raw, pos)
        n = int(np.prod(dims))
        pos += 4 + (4 * n if code == 0 else (n + 7) // 8)
        out.append((name, dims, code))
    assert pos == len(raw)
    return out


# Each stored form on a 12x10 fc and a 6x2x3x3 conv (6x18 as a matrix), around
# a pass-through bias; rank 3, and prune keeps 55 and 52 weights. Dtype code 0
# is f32, 1 is bits. Written out by hand so that it cannot follow the code.
STORED_LAYOUTS = {
    ("prune",): [
        ("fc", (55,), 0), ("fc.mask", (12, 10), 1), ("bias", (10,), 0),
        ("conv", (52,), 0), ("conv.mask", (6, 2, 3, 3), 1)],
    ("decompose",): [
        ("fc.w1", (12, 3), 0), ("fc.w2", (3, 10), 0), ("bias", (10,), 0),
        ("conv.w1", (6, 3), 0), ("conv.w2", (3, 18), 0)],
    ("prune", "decompose"): [
        ("fc.w1", (12, 3), 0), ("fc.w2", (3, 10), 0), ("bias", (10,), 0),
        ("conv.w1", (6, 3), 0), ("conv.w2", (3, 18), 0)],
    ("factorize",): [
        ("fc.w1", (12, 3), 0), ("fc.w2", (3, 10), 0), ("bias", (10,), 0),
        ("conv.w1", (6, 3), 0), ("conv.w2", (3, 18), 0)],
    ("prune", "decompose", "factorize"): [
        ("fc.w1", (12, 3), 0), ("fc.w2", (3, 10), 0), ("bias", (10,), 0),
        ("conv.w1", (6, 3), 0), ("conv.w2", (3, 18), 0)],
}


@pytest.mark.parametrize("stage_list", STORED_LAYOUTS, ids="-".join)
def test_stored_layout_pinned(stage_list):
    # names, shapes and dtype codes only: SVD and anneal payloads follow the BLAS build
    archive = TensorArchive(entries=[
        ("fc", _formula_tensor((12, 10), 1)),
        ("bias", _formula_tensor((10,), 2)),
        ("conv", _formula_tensor((6, 2, 3, 3), 3)),
    ])
    config = PipelineConfig(defaults={
        "seed": 13, "stage_list": list(stage_list),
        "prune": {"alpha": 0.45, "stages": 2, "entangle_prob": 0.1},
        "rank_svd": 3, "anneal": {"rank": 3, "max_iters": 20},
    }, layers={"fc": {}, "conv": {}})
    out, report = compress_archive(archive, config)
    raw = write_archive(out)
    assert _layout(raw) == STORED_LAYOUTS[stage_list]
    verify_report(archive, read_archive(raw), report)
