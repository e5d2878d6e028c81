"""Matrix-vector latency microbenchmark: dense vs masked (CSR) vs factored.

Desk-scale stand-in for per-image inference latency: batch-1 matvec, median
over repetitions after warmup, monotonic clock. Variants are checked against
the dense oracle in-process before any timing. Timing loops are meant to run
single-threaded and sequentially; nothing is timed concurrently.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, asdict

import numpy as np
from scipy import sparse

from .errors import ConfigError, ShapeError, check_int, check_real
from .factorize import FactorPair, check_rank
from .tensors import DenseTensor

VARIANTS = ("dense", "masked", "factored")
RTOL = 1e-4  # a variant's matvec agrees with the dense oracle's to this relative norm


@dataclass
class BenchResult:
    variant: str
    m: int
    n: int
    r: int
    flops_model: int
    median_ns: float
    p10_ns: float
    p90_ns: float
    speedup_vs_dense: float
    setup_ns: float = 0.0  # one-time cost (e.g. CSR build), not amortized

    def to_dict(self) -> dict:
        return asdict(self)


def dense_matvec(w: DenseTensor, x: np.ndarray) -> np.ndarray:
    a = w.data
    x = np.asarray(x, dtype=np.float32)
    if a.ndim != 2 or x.shape != (a.shape[1],):
        raise ShapeError(f"dense_matvec: W {a.shape} incompatible with x {x.shape}")
    # .dot, not @ (here and in factored_matvec): the same sgemv, ~0.5 us less dispatch per call
    return a.dot(x)


def factored_matvec(f: FactorPair, x: np.ndarray) -> np.ndarray:
    w1, w2 = f.w1.data, f.w2.data
    x = np.asarray(x, dtype=np.float32)
    if x.shape != (w2.shape[1],):
        raise ShapeError(f"factored_matvec: W2 {w2.shape} incompatible with x {x.shape}")
    return w1.dot(w2.dot(x))


def build_csr(w: DenseTensor, mask: np.ndarray) -> sparse.csr_matrix:
    """W where the retain mask (bool, or 0/1) keeps it, as CSR."""
    a = w.data
    if a.shape != mask.shape:
        raise ShapeError(f"mask {mask.shape} does not match W {a.shape}")
    return sparse.csr_matrix(a * mask)


def csr_matvec(csr: sparse.csr_matrix, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float32)
    if x.shape != (csr.shape[1],):
        raise ShapeError(f"csr_matvec: W {csr.shape} incompatible with x {x.shape}")
    return csr @ x


def flops_dense(m: int, n: int) -> int:
    return 2 * m * n

def flops_factored(m: int, n: int, r: int) -> int:
    return 2 * r * (m + n)

def flops_masked(nnz: int) -> int:
    return 2 * nnz


def _time_loop(fn, reps: int, warmup: int) -> np.ndarray:
    for _ in range(warmup):
        fn()
    samples = np.empty(reps)
    for i in range(reps):
        t0 = time.perf_counter_ns()
        fn()
        samples[i] = time.perf_counter_ns() - t0
    return samples


def run_bench(
    sizes: list[tuple[int, int, int]],
    variants: tuple[str, ...] = VARIANTS,
    reps: int = 100,
    warmup: int = 10,
    density: float = 0.5,
    seed: int = 0,
) -> list[BenchResult]:
    """Time matvec variants for each (m, n, r). reps >= 30, warmup >= 5, density in (0, 1]."""
    check_int("reps", reps, 30)
    check_int("warmup", warmup, 5)
    check_int("seed", seed, 0)
    check_real("density", density, "(0, 1]")
    if not variants:
        raise ConfigError(f"no variant given; known variants are {list(VARIANTS)}")
    for v in variants:
        if v not in VARIANTS:
            raise ConfigError(f"unknown variant {v!r}; known variants are {list(VARIANTS)}")
    for m, n, r in sizes:
        check_rank(r, m, n, f"--size {m}x{n}x{r}: ")
    rng = np.random.default_rng(seed)
    results: list[BenchResult] = []
    for m, n, r in sizes:
        try:
            w = DenseTensor(rng.standard_normal((m, n)))
            x = rng.standard_normal(n).astype(np.float32)
            dense_samples = _time_loop(lambda: dense_matvec(w, x), reps, warmup)
            dense_median = float(np.median(dense_samples))

            def emit(variant, samples, flops, setup_ns=0.0):
                median = float(np.median(samples))
                results.append(BenchResult(
                    variant=variant, m=m, n=n, r=r, flops_model=flops, median_ns=median,
                    p10_ns=float(np.percentile(samples, 10)),
                    p90_ns=float(np.percentile(samples, 90)),
                    speedup_vs_dense=dense_median / median, setup_ns=setup_ns))

            if "dense" in variants:
                emit("dense", dense_samples, flops_dense(m, n))
            if "masked" in variants:
                mask = rng.random((m, n)) < density
                t0 = time.perf_counter_ns()
                csr = build_csr(w, mask)
                setup = float(time.perf_counter_ns() - t0)
                ref = dense_matvec(DenseTensor(w.data * mask), x)
                _check_agreement("masked", csr_matvec(csr, x), ref)
                emit("masked", _time_loop(lambda: csr_matvec(csr, x), reps, warmup),
                     flops_masked(int(csr.nnz)), setup)
            if "factored" in variants:
                pair = FactorPair(w1=DenseTensor(rng.standard_normal((m, r))),
                                  w2=DenseTensor(rng.standard_normal((r, n))), final_loss=0.0)
                wc = DenseTensor(pair.w1.data.astype(np.float64) @ pair.w2.data.astype(np.float64))
                _check_agreement("factored", factored_matvec(pair, x), dense_matvec(wc, x))
                emit("factored", _time_loop(lambda: factored_matvec(pair, x), reps, warmup),
                     flops_factored(m, n, r))
        except (MemoryError, ValueError) as exc:  # numpy cannot allocate an array that big
            raise ConfigError(f"--size {m}x{n}x{r}: {exc}") from None
    return results


def _check_agreement(variant: str, got: np.ndarray, want: np.ndarray) -> None:
    scale = float(np.linalg.norm(want))
    err = float(np.linalg.norm(got.astype(np.float64) - want.astype(np.float64)))
    if err > RTOL * max(scale, 1.0):
        raise AssertionError(
            f"{variant} matvec disagrees with dense oracle: rel err {err / max(scale, 1.0):.3e}"
        )


def results_to_json(results: list[BenchResult]) -> str:
    return json.dumps([r.to_dict() for r in results], indent=2) + "\n"


def results_table(results: list[BenchResult]) -> str:
    header = f"{'variant':<10} {'m':>6} {'n':>6} {'r':>6} {'flops':>12} {'median':>12} {'p90':>12} {'speedup':>8}"
    lines = [header, "-" * len(header)]
    for r in results:
        lines.append(
            f"{r.variant:<10} {r.m:>6} {r.n:>6} {r.r:>6} {r.flops_model:>12} "
            f"{r.median_ns / 1e3:>10.1f}us {r.p90_ns / 1e3:>10.1f}us {r.speedup_vs_dense:>7.2f}x"
        )
    return "\n".join(lines)
