"""Batch-1 forward through the artifact a compress run wrote, against dense.

Every forward is the program's own: `tensorpress.bench`'s matvecs and FLOP
formulas. This module only picks the deployable form of each artifact kind:
  masked                 build_csr, then csr_matvec
  svd, no mask           factored_matvec on (u * sigma, v.T)
  factored, no mask      factored_matvec on (w1, w2)
  any kind with a mask   effective_matrix() materialized once at load, dense_matvec
One sample is a forward through every compressed layer in archive order.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse

from tensorpress import bench
from tensorpress.factorize import FactorPair
from tensorpress.tensors import DenseTensor

# f32 matvec against the float64 effective matrix: observed relative error is
# 1e-7 to 3e-7; 1e-4 leaves room for longer rows without hiding a wrong artifact.
RTOL = 1e-4
BLOCK = 100  # samples per block; artifact and dense blocks alternate
# Operands live in page-aligned copies: a 512x512 f32 matvec ran up to 17%
# faster or slower depending on where the allocator placed its buffers, a
# difference between runs that is not the program's. DenseTensor keeps a
# contiguous f32 array as it is, so the alignment reaches the matvec.
PAGE = 4096


def aligned(a: np.ndarray, dtype=np.float32) -> np.ndarray:
    """C-contiguous copy of a, starting on a page boundary."""
    a = np.asarray(a, dtype=dtype)
    buf = np.empty(a.nbytes + PAGE, dtype=np.uint8)
    start = -buf.ctypes.data % PAGE
    out = buf[start:start + a.nbytes].view(a.dtype).reshape(a.shape)
    out[...] = a
    return out


@dataclass
class Forward:
    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    x: np.ndarray
    flops: int   # bench.flops_* of the stored shapes and nnz
    bytes: int   # weights + x + y, computed


def _matrix(a: np.ndarray) -> np.ndarray:
    return a.reshape(a.shape[0], -1)


def _dense(name: str, mat: np.ndarray, x: np.ndarray) -> Forward:
    w = DenseTensor(aligned(mat))
    m, n = w.shape
    return Forward(name, functools.partial(bench.dense_matvec, w), x,
                   bench.flops_dense(m, n), 4 * (m * n + m + n))


def _low_rank(name: str, left: np.ndarray, right: np.ndarray, x: np.ndarray) -> Forward:
    pair = FactorPair(DenseTensor(aligned(left)), DenseTensor(aligned(right)), final_loss=0.0)
    (m, r), n = pair.w1.shape, pair.w2.shape[1]
    return Forward(name, functools.partial(bench.factored_matvec, pair), x,
                   bench.flops_factored(m, n, r), 4 * (r * (m + n) + m + n + r))


def _csr(name: str, layer, x: np.ndarray) -> Forward:
    csr = bench.build_csr(DenseTensor(_matrix(layer.masked.data)), _matrix(layer.mask))
    parts = (aligned(csr.data), aligned(csr.indices, csr.indices.dtype),
             aligned(csr.indptr, csr.indptr.dtype))
    csr = sparse.csr_matrix(parts, shape=csr.shape, copy=False)
    m, n = csr.shape
    stored = sum(a.nbytes for a in parts)
    return Forward(name, functools.partial(bench.csr_matvec, csr), x,
                   bench.flops_masked(int(csr.nnz)), stored + 4 * (m + n))


def deployable(name: str, layer, x: np.ndarray) -> Forward:
    if layer.kind == "masked":
        return _csr(name, layer, x)
    if layer.mask is not None:
        return _dense(name, layer.effective_matrix(), x)
    if layer.kind == "svd":
        f = layer.svd_factors
        return _low_rank(name, f.u.data * np.asarray(f.sigma, dtype=np.float32), f.v.data.T, x)
    if layer.kind == "factored":
        return _low_rank(name, layer.factors.w1.data, layer.factors.w2.data, x)
    raise ValueError(f"layer {name!r}: unknown artifact kind {layer.kind!r}")


def build(pipeline, original, compressed, rows, seed: int):
    """Rebuilt layers, and artifact and dense forwards, for every layer in the report."""
    rng = np.random.default_rng([seed, 1])
    layers, artifact, dense = [], [], []
    for row in rows:
        name = row["layer_name"]
        w = original.get(name)
        layer = pipeline.rebuild_layer(w, compressed, name, row["kind"])
        w_mat = _matrix(w.data)
        x = aligned(rng.standard_normal(w_mat.shape[1]))
        layers.append(layer)
        artifact.append(deployable(name, layer, x))
        dense.append(_dense(name, w_mat, x))
    return layers, artifact, dense


def check(layers, artifact: list[Forward], gate) -> None:
    """Each artifact forward must match effective_matrix() @ x within RTOL.
    The check is the benchmark's own, so that it does not rest on the code it checks."""
    for layer, fwd in zip(layers, artifact):
        want = _matrix(layer.effective_matrix()).astype(np.float64) @ fwd.x.astype(np.float64)
        err = float(np.linalg.norm(fwd.fn(fwd.x).astype(np.float64) - want))
        gate.check(err <= RTOL * float(np.linalg.norm(want)),
                   f"forward of {fwd.name} ({layer.kind}) off by {err:.3e}")


def _sample(forwards: list[Forward], count: int) -> np.ndarray:
    out = np.empty(count, dtype=np.int64)
    for i in range(count):
        t0 = time.perf_counter_ns()
        for f in forwards:
            f.fn(f.x)
        out[i] = time.perf_counter_ns() - t0
    return out


class Sampler:
    """Nanosecond samples of the artifact and dense forwards, taken in
    alternating blocks so that drift on the machine hits both alike."""

    def __init__(self, artifact: list[Forward], dense: list[Forward]):
        self.artifact, self.dense = artifact, dense
        self._a: list[np.ndarray] = []
        self._d: list[np.ndarray] = []
        _sample(artifact, BLOCK)  # warm-up
        _sample(dense, BLOCK)

    @property
    def count(self) -> int:
        return BLOCK * len(self._a)

    def run_for(self, seconds: float) -> None:
        """Sample block pairs for about `seconds`, at least one pair."""
        end = time.perf_counter() + seconds
        while True:
            if len(self._a) % 2:
                self._d.append(_sample(self.dense, BLOCK))
                self._a.append(_sample(self.artifact, BLOCK))
            else:
                self._a.append(_sample(self.artifact, BLOCK))
                self._d.append(_sample(self.dense, BLOCK))
            if time.perf_counter() >= end:
                return

    def samples(self) -> tuple[np.ndarray, np.ndarray]:
        return np.concatenate(self._a), np.concatenate(self._d)
