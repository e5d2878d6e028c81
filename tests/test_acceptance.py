"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import contextlib
import hashlib
import json
import struct
import time

import numpy as np
import pytest
from scipy.linalg import eigh

from tensorpress.bench import run_bench
from tensorpress.cli import main as cli_main
from tensorpress.decompose import reconstruct, svd, truncate
from tensorpress.errors import (
    ArchiveError,
    BadMagicError,
    DuplicateNameError,
    TruncatedArchiveError,
    UnsupportedVersionError,
)
from tensorpress.factorize import AnnealConfig, _gradients, anneal_factorize, frobenius_loss
from tensorpress.prune import PruneConfig, entangle, iterative_prune
from tensorpress.tensors import (
    BitTensor,
    DenseTensor,
    TensorArchive,
    read_archive,
    write_archive,
)


@contextlib.contextmanager
def criterion(num, title, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] {title}: FAIL")
        raise
    elapsed = time.perf_counter() - t0
    status = "PASS" if elapsed < budget_s else f"FAIL (took {elapsed:.1f}s > {budget_s}s)"
    print(f"[criterion {num:2d}] {title}: {status} ({elapsed:.2f}s)")
    assert elapsed < budget_s


def test_criterion_1_sparsity_calibration():
    with criterion(1, "sparsity calibration", 5.0):
        rng = np.random.default_rng(101)
        alphas = [0.1417, 0.25, 0.3779, 0.5]
        for i in range(100):
            n = int(rng.integers(16, 4097))
            w = DenseTensor(rng.standard_normal(n))
            alpha = alphas[i % 4]
            stages = 1 + i % 4
            res = iterative_prune(w, PruneConfig(alpha=alpha, stages=stages))
            assert abs(res.achieved_sparsity - alpha) <= stages / n, (n, alpha, stages)


def test_criterion_2_magnitude_oracle_equivalence():
    with criterion(2, "magnitude-pruning oracle equivalence", 5.0):
        rng = np.random.default_rng(202)
        for _ in range(100):
            n = int(rng.integers(16, 2000))
            w = DenseTensor(rng.standard_normal(n))
            alpha = float(rng.uniform(0, 0.95))
            res = iterative_prune(w, PruneConfig(alpha=alpha, stages=1))
            k = int(np.floor(alpha * n + 0.5))
            oracle = np.ones(n, dtype=np.uint8)
            oracle[np.argsort(np.abs(w.data), kind="stable")[:k]] = 0
            assert np.array_equal(res.mask, oracle)


def test_criterion_3_entanglement_statistics():
    with criterion(3, "entanglement statistics", 30.0):
        base = np.tile(np.array([0, 1, 1, 1], dtype=np.uint8), 5001)
        pruned = np.flatnonzero(base == 0)
        eligible = sum(
            1
            for i in pruned
            for j in (i - 1, i + 1)
            if 0 <= j < base.size and base[j] == 1
        )
        assert eligible >= 10_000
        extra = 0
        for seed in range(200):
            keep = base == 1
            entangle(keep, base.shape, 0.5, seed=seed)
            extra += int((base == 1).sum() - keep.sum())
        rate = extra / (eligible * 200)
        assert abs(rate - 0.5) < 0.02, rate
        # p = 0 is a bit-exact no-op
        keep = base == 1
        entangle(keep, base.shape, 0.0, seed=0)
        assert keep.view(np.uint8).tobytes() == base.tobytes()


def test_criterion_4_eckart_young():
    with criterion(4, "Eckart-Young tail and Gram oracle", 60.0):
        rng = np.random.default_rng(404)
        for _ in range(50):
            m = int(rng.integers(2, 129))
            n = int(rng.integers(2, 129))
            w = DenseTensor(rng.standard_normal((m, n)))
            f = svd(w)
            sig2 = np.asarray(f.sigma) ** 2
            total = float(sig2.sum())
            # singular values vs an independent symmetric eigensolver
            gram = w.data.astype(np.float64).T @ w.data.astype(np.float64)
            eigvals = np.clip(eigh(gram, eigvals_only=True)[::-1], 0, None)
            scale = max(float(eigvals[0]), 1e-12)
            assert np.abs(sig2 - eigvals[: sig2.size]).max() <= 1e-4 * scale
            a = w.data.astype(np.float64)
            for r in range(1, len(f.sigma) + 1):
                recon = reconstruct(truncate(f, r)).data.astype(np.float64)
                err2 = float(np.sum((a - recon) ** 2))
                tail = float(sig2[r:].sum())
                assert abs(err2 - tail) <= 1e-6 * max(total, 1e-12), (m, n, r)


def test_criterion_5_gradient_check():
    with criterion(5, "analytic vs finite-difference gradients", 30.0):
        rng = np.random.default_rng(505)
        h = 1e-4
        for _ in range(100):
            m = int(rng.integers(2, 9))
            n = int(rng.integers(2, 9))
            r = int(rng.integers(1, min(m, n) + 1))
            w = rng.standard_normal((m, n))
            w1 = rng.standard_normal((m, r))
            w2 = rng.standard_normal((r, n))
            a1, a2 = _gradients(w1 @ w2 - w, w1, w2)
            for arr, grad, which in ((w1, a1, 0), (w2, a2, 1)):
                num = np.zeros_like(arr)
                for idx in np.ndindex(arr.shape):
                    p, q = arr.copy(), arr.copy()
                    p[idx] += h
                    q[idx] -= h
                    args_p = (w, p, w2) if which == 0 else (w, w1, p)
                    args_q = (w, q, w2) if which == 0 else (w, w1, q)
                    num[idx] = (frobenius_loss(*args_p) - frobenius_loss(*args_q)) / (2 * h)
                scale = max(np.abs(num).max(), 1.0)
                assert np.abs(grad - num).max() <= 1e-4 * scale


@pytest.fixture(scope="module")
def anneal_runs():
    rng = np.random.default_rng(606)
    runs = []
    for seed in range(5):
        w = DenseTensor(rng.standard_normal((64, 64)))
        pair = anneal_factorize(w, AnnealConfig(rank=8, seed=seed))
        s = np.linalg.svd(w.data.astype(np.float64), compute_uv=False)
        runs.append(("random", w, pair, float(np.sum(s[8:] ** 2))))
    for seed in range(5):
        w = DenseTensor(rng.standard_normal((64, 8)) @ rng.standard_normal((8, 64)))
        pair = anneal_factorize(w, AnnealConfig(rank=8, seed=seed))
        runs.append(("exact", w, pair, 0.0))
    return runs


def test_criterion_6_annealing_optimality_gap(anneal_runs):
    with criterion(6, "annealing optimality gap", 60.0):
        for kind, w, pair, tail in anneal_runs:
            assert len(pair.loss_trace) <= 2001
            if kind == "random":
                assert pair.final_loss <= 1.05 * tail
            else:
                assert pair.final_loss < 1e-6 * np.linalg.norm(w.data) ** 2


def test_criterion_7_monotone_loss(anneal_runs):
    with criterion(7, "monotone annealing loss traces", 60.0):
        for _, _, pair, _ in anneal_runs:
            trace = pair.loss_trace
            assert all(b <= a for a, b in zip(trace, trace[1:]))


def _table1_fixture(tmp_path):
    """10-layer archive + factorize-only config hitting total ratio 1.90x.

    Each 95x95 layer stored as rank-25 factors: 9025 / (25 * 190) = 1.9.
    """
    rng = np.random.default_rng(808)
    entries = [
        (f"layer{i}", DenseTensor(rng.standard_normal((95, 95)))) for i in range(10)
    ]
    arc_path = tmp_path / "table1.qtns"
    with open(arc_path, "wb") as f:
        f.write(write_archive(TensorArchive(entries=entries)))
    config = {
        "defaults": {
            "seed": 1,
            "stage_list": ["factorize"],
            "anneal": {"rank": 25, "max_iters": 300},
        },
        "layers": {f"layer{i}": {} for i in range(10)},
    }
    cfg_path = tmp_path / "table1.json"
    cfg_path.write_text(json.dumps(config))
    return arc_path, cfg_path


def test_criterion_8_report_bookkeeping(tmp_path, capsys):
    with criterion(8, "report bookkeeping at 1.90x", 10.0):
        arc_path, cfg_path = _table1_fixture(tmp_path)
        out_path = tmp_path / "out.qtns"
        assert cli_main(["compress", str(arc_path), str(cfg_path), str(out_path)]) == 0
        assert "total ratio: 1.90x" in capsys.readouterr().out
        report_path = str(out_path) + ".report.json"
        with open(report_path) as f:
            doc = json.loads(f.read())
        assert round(doc["total_ratio"], 3) == 1.900
        for row in doc["per_layer"]:
            assert row["params_before"] == 9025
            assert row["params_after"] == 4750
        assert cli_main(["verify", str(arc_path), str(out_path), report_path]) == 0
        doc["per_layer"][3]["params_after"] += 1
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        assert cli_main(["verify", str(arc_path), str(out_path), str(tampered)]) == 4


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "byte-identical determinism across jobs", 30.0):
        arc_path, cfg_path = _table1_fixture(tmp_path)
        digests = []
        # --jobs 1, 4, the default (one worker per CPU) and more jobs than the 10 layers
        for name, jobs in (("d1", ["--jobs", "1"]), ("d2", ["--jobs", "4"]), ("d3", []),
                           ("d4", ["--jobs", "11"])):
            out = tmp_path / f"{name}.qtns"
            assert cli_main(["compress", str(arc_path), str(cfg_path), str(out), *jobs]) == 0
            digests.append((
                hashlib.sha256(out.read_bytes()).hexdigest(),
                hashlib.sha256((tmp_path / f"{name}.qtns.report.json").read_bytes()).hexdigest(),
            ))
        assert digests[1:] == digests[:1] * 3


def test_criterion_10_latency_analog():
    with criterion(10, "factored matvec speedup > 2x at 2048/128", 60.0):
        results = run_bench([(2048, 2048, 128)], variants=("dense", "factored"),
                            reps=100, warmup=10, seed=7)
        factored = next(r for r in results if r.variant == "factored")
        assert factored.flops_model * 8 == next(
            r for r in results if r.variant == "dense"
        ).flops_model
        assert factored.speedup_vs_dense > 2.0, factored.speedup_vs_dense


def test_criterion_11_format_round_trip():
    with criterion(11, "archive round-trip and corrupt-file errors", 30.0):
        rng = np.random.default_rng(1111)
        for _ in range(1000):
            n_entries = int(rng.integers(0, 4))
            entries = []
            for j in range(n_entries):
                ndim = int(rng.integers(1, 5))
                shape = tuple(int(rng.integers(1, 5)) for _ in range(ndim))
                if rng.random() < 0.5:
                    entries.append((f"t{j}", DenseTensor(rng.standard_normal(shape))))
                else:
                    entries.append((f"t{j}", BitTensor(rng.integers(0, 2, shape))))
            arc = TensorArchive(entries=entries)
            raw = write_archive(arc)
            back = read_archive(raw)
            assert write_archive(back) == raw
            assert back.entries == entries
            bits = any(isinstance(t, BitTensor) for _, t in entries)
            assert raw[4:8] == struct.pack("<I", 2 if bits else 1)

        t = DenseTensor(np.arange(16, dtype=np.float32).reshape(4, 4))
        good = write_archive(TensorArchive(entries=[("w", t)]))

        corrupt = bytearray(good)
        corrupt[0:4] = b"XXXX"
        with pytest.raises(BadMagicError):
            read_archive(bytes(corrupt))

        corrupt = bytearray(good)
        corrupt[4:8] = struct.pack("<I", 42)
        with pytest.raises(UnsupportedVersionError):
            read_archive(bytes(corrupt))

        with pytest.raises(TruncatedArchiveError):
            read_archive(good[:-20])

        entry = good[12:]
        doubled = good[:8] + struct.pack("<I", 2) + entry + entry
        with pytest.raises(DuplicateNameError):
            read_archive(doubled)

        # dimension corrupted to zero: dimension/data-length mismatch
        corrupt = bytearray(good)
        dim_off = 12 + 4 + 1 + 4  # header, name len, name "w", axis count
        corrupt[dim_off : dim_off + 8] = struct.pack("<Q", 0)
        with pytest.raises(ArchiveError) as exc_info:
            read_archive(bytes(corrupt))
        assert type(exc_info.value) is ArchiveError  # distinct from the four above

        # version 2: 9 bits take 2 bytes, and the 7 spare bits of the last must be 0
        good = write_archive(TensorArchive(entries=[("m", BitTensor(np.ones((3, 3))))]))
        assert good[-2:] == b"\xff\x01"
        with pytest.raises(ArchiveError, match="nonzero padding bits"):
            read_archive(good[:-1] + b"\x03")
        # a bit-coded entry where the version says there can be none
        with pytest.raises(ArchiveError, match="bit-coded in a version-1 file"):
            read_archive(good[:4] + struct.pack("<I", 1) + good[8:])
