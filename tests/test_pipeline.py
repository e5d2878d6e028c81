import hashlib
import itertools
import json
import sys
import threading
import time

import numpy as np
import pytest

from tensorpress import pipeline
from tensorpress.decompose import SvdFactors, reconstruct
from tensorpress.errors import ConfigError, DivergenceError, VerificationError
from tensorpress.factorize import AnnealConfig
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
            full_config(stage_list=("factorize",), anneal=None)


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
        (values,) = layer.tensors
        assert values.data.tobytes() == w.data[kept].tobytes()
        assert np.array_equal(layer.masked.data, np.where(kept, w.data, 0))
        assert row["bytes_before"] == 400
        assert row["bytes_after"] == 4 * int(kept.sum()) + 13
        (_, stored_values), (_, stored_mask) = layer.entries()
        assert stored_values is values
        assert isinstance(stored_mask, BitTensor) and np.array_equal(stored_mask.data, layer.mask)

    @pytest.mark.parametrize("shape", [(12, 9), (4, 3, 3, 3)])
    @pytest.mark.parametrize("stored", ["kept", "moved"])
    def test_masked_recon_error_equals_dense_error(self, shape, stored):
        # compress stores the kept weights; verify rebuilds whatever the
        # archive holds, so the stored values may differ from the original
        rng = np.random.default_rng(len(shape))
        data = rng.standard_normal(shape).astype(np.float32)
        data.flat[::5] = -0.0
        w = DenseTensor(data)
        for seed in range(5):
            mask = (np.random.default_rng(seed).random(shape) < 0.6).astype(np.uint8)
            values = data[mask == 1]
            if stored == "moved":
                values = values + np.random.default_rng(seed).standard_normal(values.size)
                values[::3] = -0.0
            layer = pipeline.CompressedLayer("L", "masked", (DenseTensor(values),), mask)
            a = w.data.reshape(shape[0], -1).astype(np.float64)
            want = float(np.linalg.norm(a - layer.effective_matrix()) / np.linalg.norm(a))
            assert pipeline.relative_recon_error(w, layer) == want

    def test_conv_tensor_flattened(self):
        w = random_tensor((6, 2, 3, 3), 3)
        layer, row = compress_layer(w, full_config(rank_svd=3, anneal=AnnealConfig(rank=3, seed=0)))
        assert layer.factors.w1.shape == (6, 3)
        assert layer.factors.w2.shape == (3, 18)
        assert layer.mask.shape == (6, 2, 3, 3)

    @pytest.mark.parametrize("stage_list", [("decompose",), ("prune", "decompose"),
                                            ("factorize", "decompose")])
    def test_stored_sigma_reconstructs_as_the_python_floats_did(self, stage_list):
        # the f32 sigma array promotes to f64 exactly, so the product has the
        # bytes of the tuple of Python floats the layer used to hand over
        w = random_tensor((6, 2, 3, 3), 4)
        layer, _ = compress_layer(w, full_config(stage_list=stage_list, rank_svd=3))
        u, sigma, v = layer.tensors
        as_floats = SvdFactors(u=u, sigma=tuple(float(x) for x in sigma.data), v=v)
        assert layer.svd_factors.sigma.dtype == np.float32
        assert reconstruct(layer.svd_factors).data.tobytes() == reconstruct(as_floats).data.tobytes()

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
        assert [r["kind"] for r in report.per_layer] == ["factored", "factored", "masked", "svd"]

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


# every non-empty stage list in pipeline order, and one out of it
STAGE_LISTS = [list(c) for k in (1, 2, 3) for c in itertools.combinations(STAGES, k)]
STAGE_LISTS.append(["factorize", "prune"])


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
    # the names the pre-pass checks and verify expects are the ones written
    archive, config = mixed_archive_and_config(stage_list)
    out, _ = compress_archive(archive, config)
    kind = (pipeline.LAST_STAGE_KIND[stage_list[-1]], "prune" in stage_list)
    planned = pipeline._output_names(archive, {"fc": kind, "conv": kind})
    assert out.names() == [n for names in planned.values() for n in names]


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
