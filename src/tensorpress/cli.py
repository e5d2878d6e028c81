"""Command-line interface: compress, inspect, verify, bench, gen.

Exit codes, from errors.exit_status: 0 ok, 2 config error, 3 I/O or format
error, 4 verification mismatch; 1 is a bug.

Once per process, before its first command, main has glibc's malloc keep
freed blocks in the heap (_hold_freed_memory), which only the CLI may do since
it owns its process.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import sys

import numpy as np

from . import pipeline as pl
from .errors import ConfigError, check_int, exit_status
from .factorize import check_rank
from .tensors import BitTensor, DenseTensor, TensorArchive, load_archive, save_archive

EXIT_OK = 0

# glibc mallopt(3) parameters and the values the CLI sets
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20  # glibc's largest on 64-bit: smaller blocks come from the heap
TRIM_THRESHOLD = 64 << 20  # free heap top kept before it is handed back


def _mallopt():
    """The C library's mallopt, or None where it has none (macOS, Windows)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # Windows: CDLL(None) is a TypeError
        return None
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return mallopt


@functools.cache
def _hold_freed_memory() -> None:
    """Keep freed blocks below MMAP_THRESHOLD in the heap for the next
    allocation, and up to TRIM_THRESHOLD of free heap top, so that numpy's
    freed temporaries are reused instead of being unmapped and faulted in
    again as fresh zero pages. The setting is process-wide and cannot be
    undone, so only the CLI, which owns its process, makes it."""
    mallopt = _mallopt()
    if mallopt is not None:
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tensorpress",
                                description="Quantum-inspired weight tensor compression")
    p.add_argument("--json", action="store_true", help="machine-parsable stdout")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compress", help="compress an archive per a JSON config")
    c.add_argument("input", help="input QTNS archive")
    c.add_argument("config", help="JSON config file")
    c.add_argument("output", help="output QTNS archive")
    c.add_argument("--seed", type=int, default=None, help="override all config seeds")
    c.add_argument("--jobs", type=int, default=None,
                   help="layers compressed at once (default: one per usable CPU)")

    i = sub.add_parser("inspect", help="list tensors in an archive")
    i.add_argument("archive")

    v = sub.add_parser("verify", help="re-check a compression report against artifacts")
    v.add_argument("original")
    v.add_argument("compressed")
    v.add_argument("report")

    b = sub.add_parser("bench", help="time dense/masked/factored matvec")
    b.add_argument("--size", action="append", default=[], metavar="MxNxR",
                   help="e.g. 2048x2048x128; repeatable")
    b.add_argument("--variants", default="dense,masked,factored")
    b.add_argument("--reps", type=int, default=100)
    b.add_argument("--warmup", type=int, default=10)
    b.add_argument("--density", type=float, default=0.5)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", default=None, help="write results JSON here")

    g = sub.add_parser("gen", help="generate a synthetic seeded archive")
    g.add_argument("output")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--layer", action="append", default=[], metavar="NAME=SHAPE[:rank=R]",
                   help="e.g. fc1=64x64 or conv1=8x4x3x3:rank=3; repeatable")
    return p


def cmd_compress(args) -> int:
    archive = load_archive(args.input)
    with open(args.config) as f:
        config = pl.PipelineConfig.from_json(f.read())
    out, report = pl.compress_archive(archive, config, jobs=args.jobs,
                                      seed_override=args.seed)
    save_archive(out, args.output)
    report_path = args.output + ".report.json"
    with open(report_path, "w") as f:
        f.write(report.to_json())
    if args.json:
        print(report.to_json(), end="")
    else:
        print(report.table())
        print(f"wrote {args.output} and {report_path}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    with np.errstate(invalid="ignore"):  # numpy warns as it casts a signaling NaN
        rows = [{
            "name": name,
            "dtype": "bits" if isinstance(t, BitTensor) else "f32",
            "shape": list(t.shape),
            "params": t.size,
            "frobenius_norm": float(np.linalg.norm(t.data.astype(np.float64))),
            "sparsity": float(np.mean(t.data == 0)),
        } for name, t in load_archive(args.archive).entries]
    if args.json:  # strict JSON has no NaN or Infinity: a non-finite norm is null
        print(json.dumps([r if math.isfinite(r["frobenius_norm"]) else {**r, "frobenius_norm": None}
                          for r in rows], indent=2))
        return EXIT_OK
    header = (f"{'name':<24} {'dtype':<5} {'shape':<18} {'params':>10} {'fro norm':>12} "
              f"{'sparsity':>9}")
    print(header)
    print("-" * len(header))
    for r in rows:
        shape = "x".join(str(d) for d in r["shape"])
        print(f"{r['name']:<24} {r['dtype']:<5} {shape:<18} {r['params']:>10} "
              f"{r['frobenius_norm']:>12.4f} {r['sparsity']:>9.4f}")
    return EXIT_OK


def cmd_verify(args) -> int:
    original = load_archive(args.original)
    compressed = load_archive(args.compressed)
    with open(args.report) as f:
        report = pl.CompressionReport.from_json(f.read())
    pl.verify_report(original, compressed, report)
    print("verify: OK" if not args.json else json.dumps({"status": "ok"}))
    return EXIT_OK


def cmd_bench(args) -> int:
    from . import bench as bn  # here, not at the top: only bench needs scipy

    sizes = []
    for spec in args.size or ["1024x1024x64"]:
        parts = spec.lower().split("x")
        if len(parts) != 3 or not all(p.isdecimal() and int(p) > 0 for p in parts):
            raise ConfigError(f"bad --size {spec!r}, expected MxNxR of integers >= 1")
        sizes.append(tuple(int(x) for x in parts))
    variants = tuple(v.strip() for v in args.variants.split(",") if v.strip())
    results = bn.run_bench(sizes, variants=variants, reps=args.reps,
                           warmup=args.warmup, density=args.density, seed=args.seed)
    if args.out:
        with open(args.out, "w") as f:
            f.write(bn.results_to_json(results))
    print(bn.results_to_json(results) if args.json else bn.results_table(results))
    return EXIT_OK


def _parse_layer_spec(spec: str):
    rank = None
    body = spec
    if ":" in spec:
        body, opt = spec.split(":", 1)
        key, _, val = opt.partition("=")
        if key != "rank" or not val.isdecimal() or int(val) < 1:
            raise ConfigError(f"bad layer option {opt!r}, expected rank=R with R >= 1")
        rank = int(val)
    name, _, shape_s = body.partition("=")
    if not name or not shape_s:
        raise ConfigError(f"bad --layer {spec!r}, expected NAME=SHAPE")
    try:
        name.encode("utf-8")  # an archive stores names as UTF-8
    except UnicodeEncodeError:
        raise ConfigError(f"layer name {name!r} is not valid UTF-8") from None
    try:
        shape = tuple(int(d) for d in shape_s.lower().split("x"))
    except ValueError:
        raise ConfigError(f"bad shape in --layer {spec!r}") from None
    if any(d < 1 for d in shape):
        raise ConfigError(f"dimensions must be >= 1 in --layer {spec!r}")
    return name, shape, rank


def gen_archive(layer_specs: list[str], seed: int) -> TensorArchive:
    check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    entries = []
    for spec in layer_specs:
        name, shape, rank = _parse_layer_spec(spec)
        if any(n == name for n, _ in entries):
            raise ConfigError(f"layer name {name!r} is given by more than one --layer")
        if rank is not None:
            m, n = shape[0], int(np.prod(shape[1:]))
            check_rank(rank, m, n, f"layer {name!r}: ")
            data = (rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n)))
            data = data.reshape(shape)
        else:
            data = rng.standard_normal(shape)
        entries.append((name, DenseTensor(data)))
    return TensorArchive(entries=entries)


def cmd_gen(args) -> int:
    archive = gen_archive(args.layer, args.seed)
    save_archive(archive, args.output)
    if args.json:
        print(json.dumps({"output": args.output, "entries": archive.names()}))
    else:
        print(f"wrote {args.output} with {len(archive)} tensors")
    return EXIT_OK


COMMANDS = {
    "compress": cmd_compress,
    "inspect": cmd_inspect,
    "verify": cmd_verify,
    "bench": cmd_bench,
    "gen": cmd_gen,
}


def main(argv=None) -> int:
    _hold_freed_memory()
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except Exception as exc:
        code, prefix = exit_status(exc)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
