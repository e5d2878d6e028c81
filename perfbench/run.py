"""Benchmark of tensorpress: gen -> compress -> verify -> batch-1 inference.

Every step goes in-process through `tensorpress.cli.main`, the user-facing
entry point, on inputs generated from the workload seed:

    python3 perfbench/run.py --workload fc_full --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, own process each
    python3 perfbench/run.py --smoke

`--trace 0` prints the end-to-end metrics; `--trace 1` runs traced and
untraced passes alternately and prints the per-layer metrics, and writes the
spans to .perfbench/traces/. The last line of stdout is one JSON object with
keys correct, attempted, failed and metrics; the line before it holds the run
environment, pass and sample counts and output hashes. `--workload all` runs
every workload in its own process and prints its metrics by name with units.
`--smoke` does that at toy size, traced and untraced, and checks that each
metric named in BENCHMARK.json is printed with its unit. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1          # pinned before numpy loads; at most nproc on any machine
MIN_PASSES = 3            # compress -> verify passes per kind, even past --seconds
INFER_RATIO = 0.4         # inference sampled after each pass, for 0.4 x the pass time
INFER_MIN_SAMPLES = 1000  # so that p99 has ten samples beyond it

END_TO_END = {
    "setup_s": "s",
    "e2e_s": "s",
    "throughput_mparams_s": "Mparam/s",
    "infer_p50_us": "us",
    "infer_speedup_vs_dense": "x",
    "ratio_params": "x",
    "ratio_bytes": "x",
    "recon_err_rel_max": "1",
    "peak_rss_mb": "MB",
}


PER_LAYER = {
    "cli.compress_s": "s",
    "cli.verify_s": "s",
    "cli.compress_stressed_share": "1",
    "tensors.read_s": "s",
    "tensors.write_s": "s",
    "tensors.lookup_s": "s",
    "tensors.lookup_calls": "count",
    "tensors.entries": "count",
    "tensors.bytes_written": "B",
    "prune.self_s": "s",
    "prune.entangle_s": "s",
    "prune.calls": "count",
    "prune.stage_weights": "count",
    "prune.sparsity": "1",
    "decompose.svd_s": "s",
    "decompose.reconstruct_s": "s",
    "decompose.calls": "count",
    "decompose.kept_frac": "1",
    "decompose.energy_kept": "1",
    "factorize.s": "s",
    "factorize.calls": "count",
    "factorize.iters": "count",
    "factorize.s_per_iter": "s/iter",
    "factorize.stop_max_iters": "count",
    "factorize.loss_rel": "1",
    "pipeline.compress_layer_self_s": "s",
    "pipeline.recon_error_s": "s",
    "pipeline.rebuild_s": "s",
    "pipeline.verify_report_self_s": "s",
    "bench.load_s": "s",
    "bench.infer_p99_us": "us",
    "bench.dense_p50_us": "us",
    "bench.flops_per_forward": "flop",
    "bench.bytes_per_forward": "B",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class Gate:
    """Counts checked operations; a failed one makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def pin_blas() -> None:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_program():
    """Import tensorpress from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "tensorpress" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src / 'tensorpress'}")
    sys.path.insert(0, str(src))
    import tensorpress.cli
    from tensorpress import decompose, factorize, pipeline, prune, tensors

    if not Path(tensorpress.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: tensorpress imported from {tensorpress.cli.__file__}")
    return tensorpress.cli, tensors, prune, decompose, factorize, pipeline


def import_seconds() -> float:
    """Time to import numpy, scipy and the program in a fresh interpreter;
    an import is paid once per process, so it is repeated in new ones."""
    code = ("import time; t = time.perf_counter(); import numpy, scipy.sparse, tensorpress.cli; "
            "print(time.perf_counter() - t)")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(cli, gate: Gate, argv: list, rec=None) -> bool:
    argv = [str(a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    span = rec.span(f"cli.{argv[0]}", "cli", argv[0]) if rec else nullcontext()
    with span, redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return gate.check(code == 0, f"{argv[0]} exited {code}: {err.getvalue().strip()}")


@dataclass(frozen=True)
class Files:
    inp: Path
    cfg: Path
    out: Path
    report: Path

    @staticmethod
    def under(work: Path) -> "Files":
        return Files(work / "model.qtns", work / "config.json", work / "out.qtns",
                     work / "out.qtns.report.json")


class SetUp:
    """Set-up samples, each a fresh-interpreter import plus `gen` from the
    seed and the config write. One is taken before the first pass and one
    after every untraced pass, so drift of the machine over the window
    reaches set-up as it reaches the passes; setup_s is their median."""

    def __init__(self, cli, gate: Gate, wl, seed: int, files: Files):
        self.cli, self.gate, self.wl, self.seed, self.files = cli, gate, wl, seed, files
        self.times: list[float] = []
        self.digest = None

    def sample(self) -> bool:
        """Take one sample; False when gen failed."""
        imported = import_seconds()
        t = time.perf_counter()
        ok = run_cli(self.cli, self.gate,
                     ["gen", self.files.inp, "--seed", self.seed, *self.wl.layer_args()])
        self.files.cfg.write_text(json.dumps(self.wl.config))
        elapsed = time.perf_counter() - t
        if not ok:
            return False
        self.times.append(imported + elapsed)
        digest = sha256(self.files.inp)
        if self.digest is None:
            self.digest = digest
        else:
            self.gate.check(digest == self.digest, "gen wrote different archives from one seed")
        return True


def one_pass(cli, gate: Gate, files: Files, rec=None) -> float | None:
    """compress then verify, traced when rec is given. Returns the wall time,
    or None when compress failed. A failed verify is counted and the run goes on."""
    if rec:
        rec.install()
    try:
        t = time.perf_counter()
        if not run_cli(cli, gate, ["compress", files.inp, files.cfg, files.out], rec):
            return None
        run_cli(cli, gate, ["verify", files.inp, files.out, files.report], rec)
        return time.perf_counter() - t
    finally:
        if rec:
            rec.uninstall()


def measure(name: str, seed: int, seconds: float, trace: bool, scale: str):
    """One run. Returns (metrics, detail, gate); metrics is empty when a
    failure left nothing to measure."""
    pin_blas()
    cli, tensors, prune, decompose, factorize, pipeline = import_program()
    import numpy as np
    import scipy

    import infer
    import probes
    from spans import Recorder

    wl = workloads.build(name, scale, seed)
    gate = Gate()
    detail = {
        "workload": name, "seed": seed, "scale": scale, "trace": int(trace),
        "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
    }
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        files = Files.under(work)
        setup = SetUp(cli, gate, wl, seed, files)
        if not setup.sample():
            return {}, detail, gate

        rec = None
        if trace:
            rec = Recorder()
            probes.instrument(rec, tensors, prune, decompose, factorize, pipeline)
        plain, plain_cpu, traced, layer_rows, hashes, sampler = [], [], [], [], None, None
        deadline = time.perf_counter() + seconds
        while (time.perf_counter() < deadline or len(plain) < MIN_PASSES
               or (trace and len(traced) < MIN_PASSES)):
            tracing = trace and len(traced) < len(plain)
            first = len(rec.spans) if tracing else 0
            cpu = time.process_time()
            elapsed = one_pass(cli, gate, files, rec if tracing else None)
            if elapsed is None:
                return {}, detail, gate
            (traced if tracing else plain).append(elapsed)
            if not tracing:
                plain_cpu.append(time.process_time() - cpu)
            if tracing:
                layer_rows.append(probes.layer_metrics(rec, first, wl.stressed))
            pass_hashes = {"archive": sha256(files.out), "report": sha256(files.report)}
            if hashes is None:
                # inference runs on the artifact of the first pass; every
                # later pass must write the same bytes
                hashes = pass_hashes
                rows = json.loads(files.report.read_text())["per_layer"]
                t = time.perf_counter()
                original = tensors.load_archive(files.inp)
                compressed = tensors.load_archive(files.out)
                layers, artifact, dense = infer.build(pipeline, original, compressed, rows, seed)
                load_s = time.perf_counter() - t
                infer.check(layers, artifact, gate)
                sampler = infer.Sampler(artifact, dense)
            else:
                gate.check(pass_hashes == hashes, "outputs differ between passes")
            # inference and set-up are sampled between passes so that they
            # span the window too
            sampler.run_for(INFER_RATIO * elapsed)
            if not tracing and not setup.sample():
                return {}, detail, gate
        while sampler.count < INFER_MIN_SAMPLES:
            sampler.run_for(0.0)
        a_ns, d_ns = sampler.samples()
        infer_p50, dense_p50 = float(np.median(a_ns)), float(np.median(d_ns))
        detail.update(pass_s=[round(x, 4) for x in plain],
                      pass_cpu_s=[round(x, 4) for x in plain_cpu],
                      setup_s=[round(x, 4) for x in setup.times],
                      traced_pass_s=[round(x, 4) for x in traced],
                      infer_samples=int(a_ns.size),
                      sha256_out=hashes["archive"], sha256_report=hashes["report"])

        if not trace:
            rep = json.loads(files.report.read_text())
            e2e = statistics.median(plain)
            return {
                "setup_s": statistics.median(setup.times),
                "e2e_s": e2e,
                "throughput_mparams_s": wl.configured_params() / e2e / 1e6,
                "infer_p50_us": infer_p50 / 1e3,
                "infer_speedup_vs_dense": dense_p50 / infer_p50,
                "ratio_params": rep["total_ratio"],
                "ratio_bytes": files.inp.stat().st_size / files.out.stat().st_size,
                "recon_err_rel_max": max(r["recon_error_rel"] for r in rep["per_layer"]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }, detail, gate

        metrics = {key: statistics.median(row[key] for row in layer_rows) for key in layer_rows[0]}
        metrics.update({
            "bench.load_s": load_s,
            "bench.infer_p99_us": float(np.percentile(a_ns, 99)) / 1e3,
            "bench.dense_p50_us": dense_p50 / 1e3,
            "bench.flops_per_forward": sum(f.flops for f in artifact),
            "bench.bytes_per_forward": sum(f.bytes for f in artifact),
            "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
        })
        detail["missing_wrappers"] = rec.missing
        traces = ROOT / ".perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        rec.write(traces / f"{name}-seed{seed}.json", {"workload": name, "seed": seed})
        return metrics, detail, gate
    finally:
        shutil.rmtree(work, ignore_errors=True)


def each_workload(seed: int, seconds: float, traces: tuple[int, ...], scale: str):
    """Run every workload, svd_many too, each in its own process, so that
    peak_rss_mb is per workload. Yields (label, detail, result or error)."""
    for name in workloads.DEFINED:
        for trace in traces:
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                    "--scale", scale]
            label = f"{name} trace={trace}:"
            try:
                # a traced run takes about 1.4 x seconds, plus set-up
                proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                      timeout=3 * seconds + 120)
            except subprocess.TimeoutExpired:
                yield label, {}, f"no result within {3 * seconds + 120:.0f} s"
                continue
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                yield label, {}, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
            else:
                yield label, json.loads(lines[-2])["detail"], json.loads(lines[-1])


def run_all(seed: int, seconds: float, trace: int, scale: str) -> int:
    """Print every workload's metrics by name with units."""
    failed = 0
    for label, detail, result in each_workload(seed, seconds, (trace,), scale):
        if isinstance(result, str):
            print(label, "FAIL", result)
            failed += 1
            continue
        failed += not result["correct"]
        print(label, f"correct {result['correct']}, attempted {result['attempted']}, "
              f"failed {result['failed']}", *sorted(set(detail["failures"])))
        for name, m in result["metrics"].items():
            print(f"    {name:30s} {m['value']:.6g} {m['unit']}")
    return 0 if not failed else 1


def smoke() -> int:
    """Every workload at toy size, traced and untraced: check the printed
    metrics against BENCHMARK.json and the correctness gate."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    bad = 0
    for label, detail, result in each_workload(1, 1, (0, 1), "toy"):
        if isinstance(result, str):
            print(label, "FAIL", result)
            bad += 1
            continue
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        problems = []
        if got != expected[detail["trace"]]:
            problems.append(f"metrics differ from BENCHMARK.json: "
                            f"{sorted(set(got.items()) ^ set(expected[detail['trace']].items()))}")
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            problems.append(f"correctness gate: {sorted(set(detail['failures']))}")
        bad += bool(problems)
        print(label, f"{len(got)} metrics, attempted {result['attempted']}, "
              f"failed {result['failed']}", *(f"FAIL {p}" for p in problems))
    print("smoke: OK" if not bad else f"smoke: {bad} run(s) failed")
    return 0 if not bad else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads.DEFINED) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=workloads.SCALES, default="full")
    p.add_argument("--smoke", action="store_true", help="toy-size check of every workload")
    args = p.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace, args.scale)
    metrics, detail, gate = measure(args.workload, args.seed, args.seconds,
                                    bool(args.trace), args.scale)
    detail["failures"] = gate.failures[:5]
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not gate.failures,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
