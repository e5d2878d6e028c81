import copy
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings
import hypothesis.strategies as st

import tensorpress
from tensorpress import cli, pipeline
from tensorpress.cli import main
from tensorpress.errors import ConfigError
from tensorpress.factorize import AnnealConfig
from tensorpress.pipeline import derive_seed
from tensorpress.prune import iterative_prune
from tensorpress.tensors import (
    BitTensor,
    DenseTensor,
    TensorArchive,
    load_archive,
    save_archive,
)


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def run(args):
    return main([str(a) for a in args])


CONFIG = {
    "defaults": {
        "seed": 11,
        "stage_list": ["prune", "decompose", "factorize"],
        "prune": {"alpha": 0.25, "stages": 2, "entangle_prob": 0.0},
        "rank_svd": 4,
        "anneal": {"rank": 4},
    },
    "layers": {"fc1": {}},
}


def write_fixture(workdir):
    # b and t have axis counts compress does not take; they pass through unless configured
    assert run(["gen", workdir / "in.qtns", "--seed", 5, "--layer", "fc1=16x16",
                "--layer", "fc2=8x8", "--layer", "b=8", "--layer", "t=4x4x4"]) == 0
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps(CONFIG))
    return workdir / "in.qtns", cfg


def test_gen_deterministic_hash(workdir):
    for name in ("a.qtns", "b.qtns"):
        assert run(["gen", workdir / name, "--seed", 9, "--layer", "x=4x4"]) == 0
    h = [hashlib.sha256((workdir / n).read_bytes()).hexdigest() for n in ("a.qtns", "b.qtns")]
    assert h[0] == h[1]


def test_gen_calls_in_one_process_keep_their_own_arguments(workdir):
    # main builds its parser once per process; no call's --layer or --seed reaches the next
    assert run(["gen", workdir / "a.qtns", "--seed", 9, "--layer", "a1=4x4",
                "--layer", "a2=2x3"]) == 0
    assert run(["gen", workdir / "b.qtns", "--layer", "b1=3x3"]) == 0
    assert run(["gen", workdir / "c.qtns"]) == 0
    assert run(["gen", workdir / "b0.qtns", "--seed", 0, "--layer", "b1=3x3"]) == 0
    assert cli.build_parser() is cli.build_parser()
    assert load_archive(workdir / "a.qtns").names() == ["a1", "a2"]
    assert load_archive(workdir / "b.qtns").names() == ["b1"]
    assert load_archive(workdir / "c.qtns").names() == []
    assert (workdir / "b.qtns").read_bytes() == (workdir / "b0.qtns").read_bytes()


def test_gen_empty_spec(workdir):
    assert run(["gen", workdir / "empty.qtns"]) == 0
    assert len(load_archive(workdir / "empty.qtns")) == 0


def test_gen_exact_rank_layer(workdir):
    assert run(["gen", workdir / "r.qtns", "--seed", 2, "--layer", "lr=12x10:rank=3"]) == 0
    t = load_archive(workdir / "r.qtns").get("lr")
    s = np.linalg.svd(t.data.astype(np.float64), compute_uv=False)
    assert np.sum(s[3:] ** 2) < 1e-8 * np.sum(s**2)


def test_compress_happy_path(workdir, capsys):
    archive, cfg = write_fixture(workdir)
    assert run(["compress", archive, cfg, workdir / "out.qtns"]) == 0
    assert (workdir / "out.qtns").exists()
    assert (workdir / "out.qtns.report.json").exists()
    out = capsys.readouterr().out
    assert "total ratio" in out


def test_compress_missing_layer_exit_2(workdir, capsys):
    archive, cfg = write_fixture(workdir)
    bad = dict(CONFIG)
    bad["layers"] = {"nonexistent": {}}
    cfg.write_text(json.dumps(bad))
    assert run(["compress", archive, cfg, workdir / "out.qtns"]) == 2
    assert "nonexistent" in capsys.readouterr().err


def test_compress_determinism_byte_identical(workdir):
    archive, cfg = write_fixture(workdir)
    hashes = []
    for name, jobs in (("o1.qtns", 1), ("o2.qtns", 4)):
        assert run(["compress", archive, cfg, workdir / name, "--jobs", jobs]) == 0
        hashes.append((
            hashlib.sha256((workdir / name).read_bytes()).hexdigest(),
            hashlib.sha256((workdir / f"{name}.report.json").read_bytes()).hexdigest(),
        ))
    assert hashes[0] == hashes[1]


def test_inspect_counts(workdir, capsys):
    arc = TensorArchive(entries=[
        ("a", DenseTensor(np.ones((2, 3)))),
        ("b", DenseTensor(np.zeros((4,)))),
        ("c", DenseTensor(np.ones((1, 2, 2, 2)))),
    ])
    save_archive(arc, workdir / "three.qtns")
    assert run(["--json", "inspect", workdir / "three.qtns"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["params"] for r in rows] == [6, 4, 8]
    assert rows[1]["sparsity"] == 1.0
    assert rows[0]["frobenius_norm"] == pytest.approx(np.sqrt(6))


def signaling_nan(data):
    """A float32 copy of data whose first value is a signaling NaN (bits
    0x7f800001), as a flipped byte can make; numpy warns as it casts one to
    float64, which with warnings as errors would exit 1."""
    out = np.array(data, dtype=np.float32)
    out.reshape(-1).view(np.uint32)[0] = 0x7F800001
    return out


@pytest.mark.filterwarnings("error")
def test_inspect_json_non_finite_norm_is_null(workdir, capsys):
    # pass-through NaN and inf entries are legal; strict JSON has no NaN or Infinity
    save_archive(TensorArchive(entries=[
        ("x", DenseTensor(np.array([NAN, 1.0, INF]))),
        ("y", DenseTensor(np.array([INF, 1.0]))),
        ("z", DenseTensor(np.ones(4))),
        ("s", DenseTensor(signaling_nan(np.ones(2)))),
    ]), workdir / "odd.qtns")

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    assert run(["--json", "inspect", workdir / "odd.qtns"]) == 0
    rows = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert [r["frobenius_norm"] for r in rows] == [None, None, 2.0, None]
    assert run(["inspect", workdir / "odd.qtns"]) == 0
    table = capsys.readouterr().out.splitlines()[2:]
    assert [line.split()[4] for line in table] == ["nan", "inf", "2.0000", "nan"]


@pytest.mark.filterwarnings("error")
def test_verify_signaling_nan_in_original_layer_exit_4(workdir, capsys):
    archive, cfg = write_fixture(workdir)
    out = workdir / "out.qtns"
    assert run(["compress", archive, cfg, out]) == 0
    save_archive(TensorArchive(entries=[(n, DenseTensor(signaling_nan(t.data)) if n == "fc1" else t)
                                        for n, t in load_archive(archive).entries]), archive)
    capsys.readouterr()
    assert run(["verify", archive, out, f"{out}.report.json"]) == 4
    assert re.search(r"fc1\.recon_error_rel: report \S+, recomputed nan", capsys.readouterr().err)


@pytest.mark.filterwarnings("error")
def test_verify_signaling_nan_in_stored_factor_exit_4(workdir, capsys):
    code, err = verify_tampered(workdir, capsys, replace={"fc1.w1": signaling_nan})
    assert code == 4
    assert re.search(r"fc1\.recon_error_rel: report \S+, recomputed nan", err)


def compress_one_layer(workdir, weights, stage_list):
    """Compress an archive of the one layer fc1 under stage_list, at rank 3 and
    prune alpha 0.3; return the original and compressed paths."""
    original, out = workdir / "in.qtns", workdir / "out.qtns"
    save_archive(TensorArchive(entries=[("fc1", DenseTensor(weights))]), original)
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({
        "defaults": {"stage_list": stage_list, "prune": {"alpha": 0.3}, "rank_svd": 3,
                     "anneal": {"rank": 3}},
        "layers": {"fc1": {}}}))
    assert run(["compress", original, cfg, out]) == 0
    return original, out


def verify_with_edits(original, out, capsys, edits):
    """verify the honest report against out with edits[name](values) applied in
    place to a copy of each named entry's f32 values."""
    entries = []
    for name, t in load_archive(out).entries:
        if name in edits:
            data = t.data.copy()
            edits[name](data)
            t = DenseTensor(data)
        entries.append((name, t))
    save_archive(TensorArchive(entries=entries), out)
    capsys.readouterr()
    code = run(["verify", original, out, f"{out}.report.json"])
    return code, capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("stage_list, entry", [
    (["factorize"], "fc1.w1"), (["decompose"], "fc1.w1"), (["prune"], "fc1")])
def test_verify_inf_in_stored_tensor_exit_4(workdir, capsys, stage_list, entry):
    # |report - inf| <= 1e-9 * inf holds for any finite report value, so a
    # recomputed inf must agree with nothing
    assert run(["gen", workdir / "gen.qtns", "--seed", 1, "--layer", "fc1=16x12"]) == 0
    weights = load_archive(workdir / "gen.qtns").get("fc1").data
    original, out = compress_one_layer(workdir, weights, stage_list)

    def first_to_inf(data):
        data.flat[0] = np.inf

    code, err = verify_with_edits(original, out, capsys, {entry: first_to_inf})
    assert code == 4
    assert re.search(r"fc1\.recon_error_rel: report \S+, recomputed inf", err)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("stage_list", [["factorize"], ["decompose"], ["prune", "factorize"]])
def test_verify_nonzero_artifact_of_zero_layer_exit_4(workdir, capsys, stage_list):
    # a zero layer's error is 0 only for an artifact that stands for zero too
    original, out = compress_one_layer(workdir, np.zeros((8, 8)), stage_list)
    (row,) = json.loads((workdir / "out.qtns.report.json").read_text())["per_layer"]
    assert row["recon_error_rel"] == 0.0

    def ones(data):
        data[...] = 1.0

    code, err = verify_with_edits(original, out, capsys, {"fc1.w1": ones, "fc1.w2": ones})
    assert code == 4
    assert "fc1.recon_error_rel: report 0.0, recomputed inf" in err


def test_inspect_empty_archive(workdir, capsys):
    save_archive(TensorArchive(), workdir / "empty.qtns")
    assert run(["--json", "inspect", workdir / "empty.qtns"]) == 0
    assert json.loads(capsys.readouterr().out) == []


def test_inspect_corrupt_exit_3(workdir):
    (workdir / "bad.qtns").write_bytes(b"garbage data")
    assert run(["inspect", workdir / "bad.qtns"]) == 3


def test_inspect_non_utf8_name_exit_3(workdir, capsys):
    path = workdir / "bad.qtns"
    save_archive(TensorArchive(entries=[("ab", DenseTensor(np.ones(2)))]), path)
    raw = path.read_bytes()
    path.write_bytes(raw.replace(b"ab", b"\xff\xfe", 1))
    assert run(["inspect", path]) == 3
    assert "UTF-8" in capsys.readouterr().err


def test_verify_decompose_only(workdir):
    # the report's error must come from the f32 factors the archive stores
    cfg = workdir / "svd.json"
    cfg.write_text(json.dumps({
        "defaults": {"stage_list": ["decompose"], "rank_svd": 4},
        "layers": {"a": {}, "b": {}},
    }))
    for seed in range(20):
        archive = workdir / f"in{seed}.qtns"
        out = workdir / f"out{seed}.qtns"
        assert run(["gen", archive, "--seed", seed,
                    "--layer", "a=24x24", "--layer", "b=8x4x3x3"]) == 0
        assert run(["compress", archive, cfg, out]) == 0
        assert run(["verify", archive, out, f"{out}.report.json"]) == 0, seed


def test_verify_ok_and_tampered(workdir, capsys):
    archive, cfg = write_fixture(workdir)
    assert run(["compress", archive, cfg, workdir / "out.qtns"]) == 0
    report = workdir / "out.qtns.report.json"
    assert run(["verify", archive, workdir / "out.qtns", report]) == 0

    doc = json.loads(report.read_text())
    doc["per_layer"][0]["ratio"] += 0.5
    report.write_text(json.dumps(doc))
    assert run(["verify", archive, workdir / "out.qtns", report]) == 4
    assert "ratio" in capsys.readouterr().err


def test_verify_missing_report_exit_3(workdir):
    archive, cfg = write_fixture(workdir)
    assert run(["compress", archive, cfg, workdir / "out.qtns"]) == 0
    assert run(["verify", archive, workdir / "out.qtns", workdir / "nope.json"]) == 3


def test_seed_override_changes_output(workdir):
    # entanglement draws from the prune seed; the anneal seed does not reach a
    # factorize that starts from decompose's pair
    archive, cfg = write_fixture(workdir)
    cfg.write_text(json.dumps(with_edits(CONFIG, [("defaults.prune.entangle_prob", 0.1)])))
    assert run(["compress", archive, cfg, workdir / "a.qtns"]) == 0
    assert run(["compress", archive, cfg, workdir / "b.qtns", "--seed", 999]) == 0
    assert (workdir / "a.qtns").read_bytes() != (workdir / "b.qtns").read_bytes()


def test_bench_json_output(workdir, capsys):
    assert run(["--json", "bench", "--size", "32x32x4", "--reps", 30,
                "--warmup", 5, "--out", workdir / "bench.json"]) == 0
    rows = json.loads((workdir / "bench.json").read_text())
    assert {r["variant"] for r in rows} == {"dense", "masked", "factored"}
    stdout_rows = json.loads(capsys.readouterr().out)
    assert len(stdout_rows) == len(rows)


def test_bench_table_output(capsys):
    assert run(["bench", "--size", "32x32x4", "--reps", 30, "--warmup", 5]) == 0
    header, rule, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["variant", "m", "n", "r", "flops", "median", "p90", "speedup"]
    assert set(rule) == {"-"}
    assert [row.split()[:4] for row in rows] == [[v, "32", "32", "4"]
                                                 for v in ("dense", "masked", "factored")]


def test_command_bug_exit_1(workdir, capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.COMMANDS, "inspect", broken)
    assert run(["inspect", workdir / "any.qtns"]) == 1
    assert capsys.readouterr().err == "internal error (a bug; please report it): boom\n"


def test_cli_import_leaves_scipy_unloaded():
    # only bench needs scipy, and it imports it when it runs
    src = os.path.dirname(os.path.dirname(tensorpress.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, tensorpress.cli; assert 'scipy' not in sys.modules, 'scipy loaded'"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_decompose_compress_leaves_scipy_unloaded(workdir):
    # decompose's eigensolve calls numpy's own LAPACK, never scipy's
    src = os.path.dirname(os.path.dirname(tensorpress.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    cfg = {"defaults": {"stage_list": ["decompose"], "rank_svd": 4}, "layers": {"fc": {}}}
    (workdir / "cfg.json").write_text(json.dumps(cfg))
    code = (
        "import sys; from tensorpress.cli import main; d = sys.argv[1]\n"
        "assert main(['gen', d + '/in.qtns', '--layer', 'fc=16x12']) == 0\n"
        "assert main(['compress', d + '/in.qtns', d + '/cfg.json', d + '/out.qtns']) == 0\n"
        "assert 'scipy' not in sys.modules, 'scipy loaded'\n")
    proc = subprocess.run([sys.executable, "-c", code, str(workdir)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (workdir / "out.qtns").exists()


def test_verbose_flag_is_unknown(workdir, capsys):
    archive, _ = write_fixture(workdir)
    with pytest.raises(SystemExit) as exc:
        run(["-v", "inspect", archive])
    assert exc.value.code == 2
    assert "unrecognized arguments: -v" in capsys.readouterr().err


def test_bench_bad_size_exit_2(workdir):
    assert run(["bench", "--size", "32x32"]) == 2


def test_inspect_trailing_bytes_exit_3(workdir, capsys):
    path = workdir / "in.qtns"
    save_archive(TensorArchive(entries=[("ab", DenseTensor(np.ones(2)))]), path)
    assert run(["inspect", path]) == 0
    path.write_bytes(path.read_bytes() + b"junk")
    capsys.readouterr()
    assert run(["inspect", path]) == 3
    assert "4 bytes after the last entry" in capsys.readouterr().err


def test_inspect_overflowing_dims_exit_3(workdir, capsys):
    # dims 2**32 x 2**32: the element count wraps to 0 in int64
    header = b"QTNS" + (1).to_bytes(4, "little") + (1).to_bytes(4, "little")
    entry = (1).to_bytes(4, "little") + b"w" + (2).to_bytes(4, "little")
    entry += (2**32).to_bytes(8, "little") * 2 + (0).to_bytes(4, "little")
    path = workdir / "big.qtns"
    path.write_bytes(header + entry)
    assert run(["inspect", path]) == 3
    assert "need 73786976294838206464 bytes" in capsys.readouterr().err


def test_inspect_version_2_gen_output_exit_3(workdir, capsys):
    # gen writes version 1; the same entries under a version-2 header are a
    # second encoding of an f32-only archive
    path = workdir / "in.qtns"
    assert run(["gen", path, "--seed", 1, "--layer", "fc1=4x4"]) == 0
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + (2).to_bytes(4, "little") + raw[8:])
    capsys.readouterr()
    assert run(["inspect", path]) == 3
    assert "version-2 file has no bit-coded entry" in capsys.readouterr().err


def test_inspect_zero_axes_exit_3(workdir, capsys):
    # one entry "w" declaring 0 axes, then dtype f32 and 4 data bytes
    header = b"QTNS" + (1).to_bytes(4, "little") + (1).to_bytes(4, "little")
    entry = (1).to_bytes(4, "little") + b"w" + (0).to_bytes(4, "little") * 2 + b"\0\0\x80?"
    path = workdir / "scalar.qtns"
    path.write_bytes(header + entry)
    assert run(["inspect", path]) == 3
    assert "entry 'w' has no axes" in capsys.readouterr().err


@pytest.mark.parametrize("stage_list", [["factorize"], ["prune", "decompose", "factorize"]])
def test_compress_non_finite_weights_exit_3(workdir, capsys, stage_list):
    data = np.random.default_rng(0).standard_normal((8, 8))
    data[3, 5] = np.nan
    bad = np.ones(4)
    bad[0] = np.inf  # not configured: passes through untouched
    save_archive(TensorArchive(entries=[("fc1", DenseTensor(data)),
                                        ("skip", DenseTensor(bad))]), workdir / "in.qtns")
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({
        "defaults": {"stage_list": stage_list, "prune": {"alpha": 0.25},
                     "rank_svd": 2, "anneal": {"rank": 2}},
        "layers": {"fc1": {}},
    }))
    capsys.readouterr()
    assert run(["compress", workdir / "in.qtns", cfg, workdir / "out.qtns"]) == 3
    err = capsys.readouterr().err
    assert "layer 'fc1': 1 of 64 weights are NaN or infinite" in err
    assert not (workdir / "out.qtns").exists()


def test_compress_passes_non_finite_unconfigured_layer(workdir):
    bad = np.array([np.inf, np.nan, 1.0], dtype=np.float32)
    fc1 = np.random.default_rng(1).standard_normal((8, 8))
    save_archive(TensorArchive(entries=[("fc1", DenseTensor(fc1)),
                                        ("skip", DenseTensor(bad))]), workdir / "in.qtns")
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({"defaults": {"stage_list": ["decompose"], "rank_svd": 2},
                               "layers": {"fc1": {}}}))
    assert run(["compress", workdir / "in.qtns", cfg, workdir / "out.qtns"]) == 0
    out = load_archive(workdir / "out.qtns")
    assert out.get("skip").data.tobytes() == bad.tobytes()
    # verify compares pass-throughs by bytes, so the NaN matches itself
    assert run(["verify", workdir / "in.qtns", workdir / "out.qtns",
                workdir / "out.qtns.report.json"]) == 0


def verify_tampered(workdir, capsys, edit_report=None, drop_entry=None, replace=None,
                    stage_list=None, report_doc=None, append=None):
    """compress the fixture (with stage_list, if given), tamper with the report
    or the archive (replace maps entry names to functions of their data that
    return a tensor, or an array kept in the entry's type; append maps the
    original archive to entries added at the end), run verify."""
    archive, cfg = write_fixture(workdir)
    if stage_list is not None:
        config = json.loads(cfg.read_text())
        config["defaults"]["stage_list"] = stage_list
        cfg.write_text(json.dumps(config))
    out = workdir / "out.qtns"
    assert run(["compress", archive, cfg, out]) == 0
    report = workdir / "out.qtns.report.json"
    if edit_report is not None:
        doc = json.loads(report.read_text())
        edit_report(doc)
        report.write_text(json.dumps(doc))
    if report_doc is not None:
        report.write_text(json.dumps(report_doc(json.loads(report.read_text()))))
    if drop_entry is not None or replace is not None or append is not None:
        replace = replace or {}
        entries = [(n, retyped(t, replace[n](t.data)) if n in replace else t)
                   for n, t in load_archive(out).entries if n != drop_entry]
        entries += append(load_archive(archive)) if append is not None else []
        save_archive(TensorArchive(entries=entries), out)
    capsys.readouterr()
    code = run(["verify", archive, out, report])
    return code, capsys.readouterr().err


def retyped(t, new):
    return new if isinstance(new, (DenseTensor, BitTensor)) else type(t)(new)


def test_verify_archive_missing_entry_exit_4(workdir, capsys):
    code, err = verify_tampered(workdir, capsys, drop_entry="fc1.w1")
    assert code == 4
    assert "fc1.w1" in err


def test_verify_kind_changed_exit_4(workdir, capsys):
    def edit(doc):
        doc["per_layer"][0]["kind"] = "masked"
    code, err = verify_tampered(workdir, capsys, edit_report=edit)
    assert code == 4
    # a masked layer's values and mask; the factored fc1 stored neither
    assert "archive has no ['fc1', 'fc1.mask']" in err


def test_verify_row_without_kind_exit_4(workdir, capsys):
    def edit(doc):
        del doc["per_layer"][0]["kind"]
    code, err = verify_tampered(workdir, capsys, edit_report=edit)
    assert code == 4
    assert "kind" in err


def test_verify_report_without_per_layer_exit_4(workdir, capsys):
    code, err = verify_tampered(workdir, capsys, edit_report=lambda doc: doc.pop("per_layer"))
    assert code == 4
    assert "per_layer" in err


def test_verify_unknown_kind_exit_4(workdir, capsys):
    # svd stands for a 0.1 report, whose decompose-last layers stored u, sigma and v
    for kind in ("bogus", "svd"):
        def edit(doc):
            doc["per_layer"][0]["kind"] = kind
        code, err = verify_tampered(workdir, capsys, edit_report=edit)
        assert code == 4
        assert f"unknown artifact kind {kind!r}; known kinds are ['masked', 'factored']" in err


@pytest.mark.parametrize("layer, key, value", [("dec", "mask_bits", False),
                                               ("one", "params_after", True),
                                               ("dec", "mask_bits", 0.0),
                                               ("one", "params_after", 1.0)],
                         ids=["mask_bits_false", "params_after_true",
                              "mask_bits_float", "params_after_float"])
def test_verify_bool_for_count_exit_4(workdir, capsys, layer, key, value):
    """JSON false, true, 0.0 and 1.0 are not the counts 0 and 1, though Python's
    == takes them so."""
    path = workdir / "in.qtns"
    save_archive(TensorArchive(entries=[
        ("one", DenseTensor(np.array([[1.0, 2.0]]))),
        ("dec", DenseTensor(np.random.default_rng(0).standard_normal((8, 8)))),
    ]), path)
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({"layers": {
        "one": {"stage_list": ["prune"], "prune": {"alpha": 0.5}},
        "dec": {"stage_list": ["decompose"], "rank_svd": 2},
    }}))
    out, report = workdir / "out.qtns", workdir / "out.qtns.report.json"
    assert run(["compress", path, cfg, out]) == 0
    doc = json.loads(report.read_text())
    row = next(r for r in doc["per_layer"] if r["layer_name"] == layer)
    assert row[key] == value and row[key] is not value
    row[key] = value
    report.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", path, out, report]) == 4
    assert f"{layer}.{key}: report {value}, recomputed {int(value)}" in capsys.readouterr().err


@pytest.mark.parametrize("tamper, message", [
    ({"replace": {"fc2": lambda data: 2 * data}}, "fc2: pass-through entry differs"),
    ({"drop_entry": "fc2"}, "extra [], missing ['fc2']"),
    ({"append": lambda orig: [("extra", DenseTensor(np.ones(3)))]}, "extra ['extra']"),
    ({"append": lambda orig: [("fc1", orig.get("fc1"))]}, "extra ['fc1']"),
    ({"edit_report": lambda doc: doc["per_layer"].append(doc["per_layer"][0])},
     "report row 1 repeats layer 'fc1'"),
    ({"edit_report": lambda doc: doc["per_layer"][0].update(layer_name="ghost")},
     "report row 0: 'ghost' is not in the original archive"),
    # t is 4 x 4 x 4, an axis count compress does not take
    ({"edit_report": lambda doc: doc["per_layer"][0].update(layer_name="t")},
     "layer 't': original is not an f32 tensor of 2 or 4 axes"),
], ids=["passthrough_doubled", "passthrough_dropped", "extra_entry", "original_kept",
        "row_repeated", "row_not_in_original", "row_on_3_axes"])
def test_verify_whole_archive_exit_4(workdir, capsys, tamper, message):
    code, err = verify_tampered(workdir, capsys, **tamper)
    assert code == 4
    assert message in err


def test_verify_layout_repeating_a_name_exit_4(workdir, capsys):
    # fc's factor pair is named fc.w1 and fc.w2, beside an original pass-through
    # fc.w1; compress refuses that layout, so its report is made by hand
    rng = np.random.default_rng(0)
    fc = DenseTensor(rng.standard_normal((8, 8)))
    save_archive(TensorArchive(entries=[("fc", fc)]), workdir / "fc.qtns")
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({"defaults": {"stage_list": ["factorize"], "anneal": {"rank": 2}},
                               "layers": {"fc": {}}}))
    out, report = workdir / "out.qtns", workdir / "out.qtns.report.json"
    assert run(["compress", workdir / "fc.qtns", cfg, out]) == 0
    original = TensorArchive(entries=[("fc", fc), ("fc.w1", DenseTensor(np.ones((3, 3))))])
    save_archive(original, workdir / "in.qtns")
    doc = json.loads(report.read_text())
    for key, unit in (("total_ratio", "params"), ("total_bytes_ratio", "bytes")):
        doc[key] = pipeline.total_ratio(original, doc["per_layer"], unit)
    report.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", workdir / "in.qtns", out, report]) == 4
    assert "repeated ['fc.w1']" in capsys.readouterr().err


def assert_prune_empties_layer_exit_2(workdir, capsys, stage_list):
    save_archive(TensorArchive(entries=[("fc1", DenseTensor(np.array([[1.0, 2.0]])))]),
                 workdir / "in.qtns")
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({
        "defaults": {"stage_list": stage_list, "prune": {"alpha": 0.75},
                     "rank_svd": 1, "anneal": {"rank": 1}},
        "layers": {"fc1": {}},
    }))
    capsys.readouterr()
    assert run(["compress", workdir / "in.qtns", cfg, workdir / "out.qtns"]) == 2
    assert "layer 'fc1' (prune): leaves none of its 2 weights" in capsys.readouterr().err
    assert not (workdir / "out.qtns").exists()


def test_compress_prune_leaves_no_weight_exit_2(workdir, capsys):
    assert_prune_empties_layer_exit_2(workdir, capsys, ["prune"])


@pytest.mark.parametrize("stage_list", [["prune", "decompose"], ["prune", "factorize"],
                                        ["prune", "decompose", "factorize"]], ids="-".join)
def test_compress_prune_empties_layer_before_later_stages_exit_2(workdir, capsys, stage_list):
    assert_prune_empties_layer_exit_2(workdir, capsys, stage_list)


@pytest.mark.parametrize("jobs", [["--jobs", 1], ["--jobs", 2], ["--jobs", 4], []],
                         ids=["1", "2", "4", "default"])
def test_compress_first_fault_in_archive_order_exit_2(workdir, capsys, monkeypatch, jobs):
    # big and small both lose every weight to prune; small fails sooner, yet big
    # comes first in the archive, so its fault is the one reported at any jobs
    rng = np.random.default_rng(0)
    names = ["big", "small", "ok1", "ok2", "ok3", "ok4", "ok5"]
    save_archive(TensorArchive(entries=[
        ("big", DenseTensor(rng.standard_normal((96, 96)))),
        ("small", DenseTensor(np.array([[1.0, 2.0]]))),
    ] + [(n, DenseTensor(rng.standard_normal((4, 4)))) for n in names[2:]]),
        workdir / "in.qtns")
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({
        "defaults": {"stage_list": ["prune"], "prune": {"alpha": 0.1}},
        "layers": {"big": {"prune": {"alpha": 0.99995, "stages": 1}},
                   "small": {"prune": {"alpha": 0.75}}, **{n: {} for n in names[2:]}},
    }))
    started = []
    real = pipeline.compress_layer

    def recording(w, cfg, **kw):
        started.append(cfg.layer_name)
        if cfg.layer_name.startswith("ok"):
            time.sleep(0.2)  # long past the faults, so a later start would show
        return real(w, cfg, **kw)

    monkeypatch.setattr(pipeline, "compress_layer", recording)
    capsys.readouterr()
    assert run(["compress", workdir / "in.qtns", cfg, workdir / "out.qtns", *jobs]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: layer 'big' (prune): leaves none of its 9216 weights"), err
    assert not (workdir / "out.qtns").exists()
    # workers take layers in archive order and stop at the first fault they see:
    # only the first layer each worker took has started
    workers = min(jobs[1] if jobs else pipeline._default_jobs(), len(names))
    assert sorted(started, key=names.index) == names[:len(started)]
    assert len(started) <= workers


@pytest.mark.parametrize("edit, message", [
    # a mask that keeps no weight leaves the 192 stored values none to fill
    pytest.param(np.zeros_like, "layer 'fc1' (masked): fc1 is (192,), not (0,)",
                 id="zeros_like-keeps no weight"),
    # a mask as compress wrote it before masks were bit-packed
    (DenseTensor, "layer 'fc1' (masked): fc1.mask is f32, not bit-coded"),
    # a mask of the right count in another shape: its shape is the original's
    pytest.param(lambda mask: mask.reshape(8, 32),
                 "layer 'fc1' (masked): fc1.mask is (8, 32), not (16, 16)", id="reshaped"),
])
def test_verify_mask_keeps_nothing_or_not_binary_exit_4(workdir, capsys, edit, message):
    code, err = verify_tampered(workdir, capsys, stage_list=["prune"],
                                replace={"fc1.mask": edit})
    assert code == 4
    assert message in err


@pytest.mark.parametrize("stage_list, entry, shape", [
    (None, "fc1.w1", (16, 3)),
    (None, "fc1.w2", (1, 16)),
    (["prune"], "fc1.mask", (16, 8)),
    (["decompose"], "fc1.w1", (15, 4)),
    (["decompose"], "fc1.w2", (4, 15)),
    (["decompose"], "fc1.w2", (3, 16)),  # a rank other than w1's
    (["prune"], "fc1", (16, 8)),
])
def test_verify_wrong_shape_exit_4(workdir, capsys, stage_list, entry, shape):
    code, err = verify_tampered(workdir, capsys, stage_list=stage_list,
                                replace={entry: lambda _: np.ones(shape)})
    assert code == 4
    assert "layer 'fc1'" in err and "not (" in err


@pytest.mark.parametrize("report_doc", [
    lambda doc: [doc],
    lambda doc: {**doc, "per_layer": [3]},
    lambda doc: {**doc, "per_layer": [{**doc["per_layer"][0], "layer_name": ["fc1"]}]},
], ids=["report_list", "row_number", "name_list"])
def test_verify_report_not_objects_exit_4(workdir, capsys, report_doc):
    code, _ = verify_tampered(workdir, capsys, report_doc=report_doc)
    assert code == 4


@pytest.mark.parametrize("edit", [
    lambda values: np.append(values, np.float32(1.0)),
    lambda values: values[:-1],
    BitTensor,  # values all 0 or 1 after pruning a tensor of ones
], ids=["one_more", "one_fewer", "bit_packed"])
def test_verify_masked_values_one_per_kept_weight_exit_4(workdir, capsys, edit):
    """A masked layer stores one f32 value per weight its mask keeps."""
    path = workdir / "ones.qtns"
    save_archive(TensorArchive(entries=[("fc1", DenseTensor(np.ones((16, 16))))]), path)
    cfg = workdir / "prune.json"
    cfg.write_text(json.dumps({"defaults": {"stage_list": ["prune"], "prune": {"alpha": 0.5}},
                               "layers": {"fc1": {}}}))
    out = workdir / "out.qtns"
    assert run(["compress", path, cfg, out]) == 0
    entries = dict(load_archive(out).entries)
    kept = int(entries["fc1.mask"].data.sum())
    entries["fc1"] = retyped(entries["fc1"], edit(entries["fc1"].data))
    save_archive(TensorArchive(entries=list(entries.items())), out)
    capsys.readouterr()
    assert run(["verify", path, out, f"{out}.report.json"]) == 4
    err = capsys.readouterr().err
    if entries["fc1"].shape == (kept,):
        assert "layer 'fc1' (masked): fc1 is bit-coded, not f32" in err
    else:
        assert f"layer 'fc1' (masked): fc1 is {entries['fc1'].shape}, not ({kept},)" in err


def test_verify_pre_bit_packed_archive_exit_4(workdir, capsys):
    """An archive and report in the layout compress wrote before masks were
    bit-packed: weights in the layer's shape, an f32 mask, no byte counts."""
    def edit(doc):
        del doc["total_bytes_ratio"]
        for row in doc["per_layer"]:
            del row["bytes_before"], row["bytes_after"]

    code, err = verify_tampered(workdir, capsys, stage_list=["prune"], edit_report=edit,
                                replace={"fc1.mask": DenseTensor,
                                         "fc1": lambda _: np.zeros((16, 16))})
    assert code == 4
    assert "layer 'fc1' (masked): fc1.mask is f32, not bit-coded" in err


def test_verify_0_2_pruned_low_rank_layout_exit_4(workdir, capsys):
    """An archive and report as 0.2 wrote them for the default stage list: the
    retain mask of the prune stage stored beside the factored pair, its bits
    counted in the row and multiplied into the product. Since 0.3 only a masked
    layer has a mask, so the old row's bytes no longer match the archive."""
    archive, cfg = write_fixture(workdir)
    out = workdir / "out.qtns"
    assert run(["compress", archive, cfg, out]) == 0
    original = load_archive(archive)
    w = original.get("fc1")
    mask = iterative_prune(w, pipeline.PipelineConfig(**CONFIG).resolved("fc1").prune).mask
    entries = []
    for name, t in load_archive(out).entries:
        entries.append((name, t))
        if name == "fc1.w2":
            entries.append(("fc1.mask", BitTensor(mask)))
    save_archive(TensorArchive(entries=entries), out)
    stored = load_archive(out)
    w1, w2 = (stored.get(n).data.astype(np.float64) for n in ("fc1.w1", "fc1.w2"))
    a = w.data.astype(np.float64)
    report = workdir / "out.qtns.report.json"
    doc = json.loads(report.read_text())
    row = doc["per_layer"][0]
    row["bytes_after"] += BitTensor.payload_bytes(mask.size)
    row["mask_bits"] = mask.size
    row["recon_error_rel"] = float(np.linalg.norm(a - w1 @ w2 * mask) / np.linalg.norm(a))
    doc["total_bytes_ratio"] = pipeline.total_ratio(original, doc["per_layer"], "bytes")
    report.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", archive, out, report]) == 4
    got, want = row["bytes_after"], row["bytes_after"] - BitTensor.payload_bytes(mask.size)
    assert f"fc1.bytes_after: report {got}, recomputed {want}" in capsys.readouterr().err


def test_mask_padding_bits_exit_3(workdir, capsys):
    """A mask of 25 bits takes 4 bytes; setting any of the 7 spare bits of the
    last one leaves a second encoding of the same mask, which no reader accepts."""
    path = workdir / "in.qtns"
    save_archive(TensorArchive(entries=[
        ("fc1", DenseTensor(np.random.default_rng(0).standard_normal((5, 5))))]), path)
    cfg = workdir / "prune.json"
    cfg.write_text(json.dumps({"defaults": {"stage_list": ["prune"], "prune": {"alpha": 0.4}},
                               "layers": {"fc1": {}}}))
    out = workdir / "out.qtns"
    assert run(["compress", path, cfg, out]) == 0
    assert load_archive(out).names()[-1] == "fc1.mask"  # its payload ends the file
    raw = out.read_bytes()
    for bit in range(1, 8):
        out.write_bytes(raw[:-1] + bytes([raw[-1] | 1 << bit]))
        capsys.readouterr()
        assert run(["inspect", out]) == 3
        assert run(["verify", path, out, f"{out}.report.json"]) == 3
        assert "entry 'fc1.mask' has nonzero padding bits" in capsys.readouterr().err
    out.write_bytes(raw)
    assert run(["verify", path, out, f"{out}.report.json"]) == 0


def test_inspect_compressed_archive(workdir, capsys):
    # fc1 under the default stage list is a factored pair with no mask; the
    # prune-only fc2 is a masked layer with its bit-coded mask
    archive, cfg = write_fixture(workdir)
    cfg.write_text(json.dumps(with_edits(CONFIG, [("layers.fc2", {"stage_list": ["prune"]})])))
    assert run(["compress", archive, cfg, workdir / "out.qtns"]) == 0
    capsys.readouterr()
    assert run(["--json", "inspect", workdir / "out.qtns"]) == 0
    rows = {r["name"]: r for r in json.loads(capsys.readouterr().out)}
    assert list(rows) == ["fc1.w1", "fc1.w2", "fc2", "fc2.mask", "b", "t"]
    assert rows["fc1.w1"]["dtype"] == "f32" and rows["fc1.w1"]["shape"] == [16, 4]
    mask = rows["fc2.mask"]
    assert mask["dtype"] == "bits" and mask["shape"] == [8, 8] and mask["params"] == 64
    kept = int(load_archive(workdir / "out.qtns").get("fc2.mask").data.sum())
    assert rows["fc2"]["shape"] == [kept]
    assert mask["sparsity"] == pytest.approx(1 - kept / 64)
    assert mask["frobenius_norm"] == pytest.approx(np.sqrt(kept))
    assert run(["inspect", workdir / "out.qtns"]) == 0
    table = capsys.readouterr().out
    assert "fc2.mask" in table and "fc1.mask" not in table


MISSING = object()  # as a value: the key is left out


def with_edits(block, edits):
    """A copy of block with each (dotted path, value) of edits set."""
    block = copy.deepcopy(block)
    for path, value in edits:
        *parents, last = path.split(".")
        node = block
        for key in parents:
            node = node.setdefault(key, {})
        if value is MISSING:
            node.pop(last, None)
        else:
            node[last] = value
    return block


@pytest.mark.parametrize("edits, args, message", [
    pytest.param({"defaults.rank_svd": 2.5}, [], "layer 'fc1': rank_svd must be an integer",
                 id="rank_svd_float"),
    pytest.param({"defaults.rank_svd": "3"}, [], "layer 'fc1': rank_svd must be an integer",
                 id="rank_svd_string"),
    pytest.param({"defaults.prune.stages": 2.5}, [], "layer 'fc1': stages must be an integer",
                 id="prune_stages_float"),
    pytest.param({"defaults.anneal.max_iters": 2.5}, [],
                 "layer 'fc1': max_iters must be an integer", id="max_iters_float"),
    pytest.param({"defaults.anneal.rank": 2.5}, [], "layer 'fc1': rank must be an integer",
                 id="rank_float"),
    pytest.param({"defaults.anneal.rank": "2"}, [], "layer 'fc1': rank must be an integer",
                 id="rank_string"),
    pytest.param({"defaults.anneal.bogus": 1}, [], "layer 'fc1': .*'bogus'",
                 id="anneal_unknown_key"),
    pytest.param({"defaults.prune.bogus": 1}, [],
                 r"layer 'fc1': prune: unknown keys \['bogus'\]; "
                 r"known keys are \['alpha', 'stages', 'entangle_prob', 'seed'\]",
                 id="prune_unknown_key"),
    pytest.param({"layers.fc2": {"anneal": {"eta": 1, "rank": 2}}}, [],
                 r"layer 'fc2': anneal: unknown keys \['eta'\]; known keys are \['rank', "
                 r"'eta0', 'decay', 'max_iters', 'rel_tol', 'seed'\]",
                 id="anneal_unknown_key_named"),
    # the random start's range follows W: there is no key to set it
    pytest.param({"defaults.anneal.init_scale": 0.1}, [],
                 r"layer 'fc1': anneal: unknown keys \['init_scale'\]",
                 id="init_scale_unknown_key"),
    pytest.param({"defaults.anneal.seed": -1}, [], "layer 'fc1': seed must be >= 0",
                 id="anneal_seed_negative"),
    pytest.param({"defaults.anneal.eta0": float("nan")}, [], "layer 'fc1': eta0 must be",
                 id="eta0_nan"),
    pytest.param({"defaults.anneal.eta0": float("inf")}, [], "layer 'fc1': eta0 must be",
                 id="eta0_inf"),
    pytest.param({"defaults.anneal.rel_tol": float("nan")}, [], "layer 'fc1': rel_tol must be",
                 id="rel_tol_nan"),
    pytest.param({"defaults.seed": "x"}, [], "layer 'fc1': seed must be an integer",
                 id="seed_string"),
    pytest.param({"defaults.seed": 1.5}, [], "layer 'fc1': seed must be an integer",
                 id="seed_float"),
    pytest.param({"defaults.prune.seed": 1.5, "defaults.prune.entangle_prob": 0.1}, [],
                 "layer 'fc1': seed must be an integer", id="prune_seed_float"),
    pytest.param({"layers": []}, [], "layers: must be a JSON object", id="layers_list"),
    pytest.param({"layers.fc1": []}, [], "layer 'fc1': must be a JSON object",
                 id="layer_overrides_list"),
    pytest.param({"layers.fc1.stagelist": ["prune"]}, [],
                 r"layer 'fc1': unknown keys \['stagelist'\]",
                 id="layer_unknown_key"),
    pytest.param({"defaults.seeed": 3}, [], r"defaults: unknown keys \['seeed'\]",
                 id="defaults_unknown_key"),
    pytest.param({"defaults.prune": None}, [], "defaults: prune must be a JSON object",
                 id="prune_block_null"),
    # fc2 comes after fc1 in the archive: its fault stops compress before fc1 runs
    pytest.param({"layers.fc2": {"anneal": {"bogus": 1}}}, [], "layer 'fc2': .*'bogus'",
                 id="last_layer_override"),
    pytest.param({}, ["--jobs", 0], "jobs must be >= 1, got 0", id="jobs_0"),
    pytest.param({"layers.b": {}}, [], "layer 'b': need a 2- or 4-axis tensor, got 1 axes",
                 id="layer_1_axis"),
    pytest.param({"layers.t": {}}, [], "layer 't': need a 2- or 4-axis tensor, got 3 axes",
                 id="layer_3_axes"),
    pytest.param({"defaults.anneal.eta0": 10**400}, [], r"layer 'fc1': eta0 must be a number",
                 id="eta0_int_past_float"),
    pytest.param({"defaults.anneal.rank": True}, [],
                 "layer 'fc1': rank must be an integer, got True", id="rank_true"),
    pytest.param({"defaults.rank_svd": True}, [],
                 "layer 'fc1': rank_svd must be an integer, got True", id="rank_svd_true"),
    pytest.param({"defaults.prune.stages": True}, [],
                 "layer 'fc1': stages must be an integer, got True", id="prune_stages_true"),
    pytest.param({"defaults.seed": True}, [], "layer 'fc1': seed must be an integer, got True",
                 id="seed_true"),
    pytest.param({"defaults.prune.alpha": False}, [],
                 r"layer 'fc1': alpha must be a number in \[0, 1\), got False",
                 id="prune_alpha_false"),
    pytest.param({"defaults.stage_list": "prune"}, [],
                 "layer 'fc1': stage_list must be a list, got 'prune'", id="stage_list_string"),
    pytest.param({"defaults.stage_list": 5}, [], "layer 'fc1': stage_list must be a list, got 5",
                 id="stage_list_number"),
    pytest.param({"defaults.prune.alpha": "a"}, [], "layer 'fc1': alpha must be a number",
                 id="prune_alpha_string"),
    pytest.param({"defaults.anneal.decay": "x"}, [], "layer 'fc1': decay must be a number",
                 id="decay_string"),
    pytest.param({"bogus": 1}, [], r"unknown top-level config keys: \['bogus'\]",
                 id="top_level_unknown_key"),
    # with two faults, the first in the order resolved() checks them is reported:
    # block keys, seed, stage_list's type, anneal values, prune values, the rest
    pytest.param({"defaults.seed": "x", "defaults.anneal.bogus": 1}, [],
                 r"layer 'fc1': anneal: unknown keys \['bogus'\]", id="keys_before_seed"),
    pytest.param({"defaults.seed": "x", "defaults.stage_list": 5}, [],
                 "layer 'fc1': seed must be an integer", id="seed_before_stage_list"),
    pytest.param({"defaults.stage_list": 5, "defaults.anneal.decay": 5}, [],
                 "layer 'fc1': stage_list must be a list, got 5", id="stage_list_before_anneal"),
    pytest.param({"defaults.prune.alpha": 2.0, "defaults.anneal.decay": 5}, [],
                 r"layer 'fc1': decay must be a number in \(0, 1\]", id="anneal_before_prune"),
    pytest.param({"defaults.prune.alpha": 2.0, "defaults.rank_svd": 0}, [],
                 r"layer 'fc1': alpha must be a number in \[0, 1\)", id="prune_before_rank_svd"),
    # --seed replaces every config seed, each checked as written first
    pytest.param({"defaults.seed": "x"}, ["--seed", 3], "layer 'fc1': seed must be an integer",
                 id="seed_string_overridden"),
    pytest.param({"defaults.prune.seed": "x"}, ["--seed", 3],
                 "layer 'fc1': seed must be an integer, got 'x'", id="prune_seed_overridden"),
    pytest.param({"defaults.anneal.seed": -1}, ["--seed", 3], "layer 'fc1': seed must be >= 0",
                 id="anneal_seed_negative_overridden"),
    # faults that the layer's shape decides: fc1 is 16 x 16
    pytest.param({"defaults.anneal.rank": 100}, [],
                 r"layer 'fc1' \(factorize\): rank 100 exceeds min\(m, n\) = 16",
                 id="rank_past_shape"),
    *[pytest.param({"defaults.prune.stages": v}, [], r"layer 'fc1' \(prune\): stages", id=i)
      for v, i in [(257, "stages_257"), (10**12, "stages_1e12"), (10**400, "stages_huge")]],
    # a stage without the key it needs; with two such faults, or two faults that
    # the layer's shape decides, the one reported does not follow the stage list
    pytest.param({"defaults.rank_svd": MISSING}, [],
                 "^config error: layer 'fc1': decompose stage needs rank_svd$",
                 id="no_rank_svd"),
    pytest.param({"defaults.anneal.rank": MISSING}, [],
                 "^config error: layer 'fc1': factorize stage needs anneal.rank$",
                 id="no_anneal_rank"),
    *[pytest.param({"defaults.rank_svd": MISSING, "defaults.anneal.rank": MISSING,
                    "defaults.stage_list": stages}, [],
                   "^config error: layer 'fc1': decompose stage needs rank_svd$",
                   id=f"no_ranks_{i}")
      for stages, i in [(CONFIG["defaults"]["stage_list"], "default"),
                        (["factorize", "decompose"], "factorize_first")]],
    *[pytest.param({"defaults.anneal.rank": 100, "defaults.prune.stages": 257,
                    "defaults.stage_list": stages}, [],
                   r"layer 'fc1' \(factorize\): rank 100 exceeds min\(m, n\) = 16",
                   id=f"rank_before_stages_{i}")
      for stages, i in [(CONFIG["defaults"]["stage_list"], "default"),
                        (["prune", "factorize"], "prune_first")]],
])
def test_compress_bad_config_exit_2_before_any_layer(workdir, capsys, monkeypatch,
                                                      edits, args, message):
    archive, cfg = write_fixture(workdir)
    cfg.write_text(json.dumps(with_edits(CONFIG, edits.items())))
    calls = []
    monkeypatch.setattr(pipeline, "compress_layer", lambda *a: calls.append(a))
    capsys.readouterr()
    assert run(["compress", archive, cfg, workdir / "out.qtns", *args]) == 2
    assert re.search(message, capsys.readouterr().err)
    assert calls == []
    assert not (workdir / "out.qtns").exists()


@pytest.mark.parametrize("layers, config, message", [
    # fc's factor pair is named fc.w1 and fc.w2, and fc.w1 passes through
    (["fc=64x64", "fc.w1=3x3"], {"fc": {}}, r"layer 'fc': entry names \['fc.w1'\] collide"),
    # two configured layers: a's factor pair and the masked a.w1
    (["a=8x8", "a.w1=8x8"], {"a": {}, "a.w1": {"stage_list": ["prune"]}},
     r"layer 'a': entry names \['a.w1'\] collide"),
], ids=["pass_through", "two_configured"])
def test_compress_entry_name_collision_exit_2_before_any_layer(workdir, capsys, monkeypatch,
                                                               layers, config, message):
    gen = ["gen", workdir / "in.qtns"]
    assert run([*gen, *[a for spec in layers for a in ("--layer", spec)]]) == 0
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({"defaults": {"stage_list": ["factorize"], "anneal": {"rank": 2}},
                               "layers": config}))
    calls = []
    monkeypatch.setattr(pipeline, "compress_layer", lambda *a, **k: calls.append(a))
    capsys.readouterr()
    assert run(["compress", workdir / "in.qtns", cfg, workdir / "out.qtns"]) == 2
    assert re.search(message, capsys.readouterr().err)
    assert calls == []
    assert not (workdir / "out.qtns").exists()
    assert not (workdir / "out.qtns.report.json").exists()


@pytest.mark.parametrize("stage_list", [["decompose"], ["prune", "decompose"],
                                        ["prune", "decompose", "factorize"]], ids="-".join)
@pytest.mark.parametrize("dtype", [DenseTensor, BitTensor])
def test_factored_layer_beside_pass_through_mask_name(workdir, capsys, stage_list, dtype):
    # only a masked layer writes or reads name.mask, so beside a factored fc a
    # fc.mask entry, f32 or bit-coded, is an ordinary pass-through
    w = DenseTensor(np.random.default_rng(0).standard_normal((8, 8)))
    mask = dtype(np.ones((8, 8)))
    save_archive(TensorArchive(entries=[("fc", w), ("fc.mask", mask)]), workdir / "in.qtns")
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({"layers": {"fc": {
        "stage_list": stage_list, "rank_svd": 2, "anneal": {"rank": 2}}}}))
    out = workdir / "out.qtns"
    assert run(["compress", workdir / "in.qtns", cfg, out]) == 0
    stored = load_archive(out)
    assert stored.names() == ["fc.w1", "fc.w2", "fc.mask"]
    assert stored.get("fc.mask") == mask
    assert run(["verify", workdir / "in.qtns", out, f"{out}.report.json"]) == 0


# with warnings as errors: an overflow warning on the way to inf would exit 1.
# factorize runs first, from random factors: from decompose's pair it would
# start at the f32 floor and take no step
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key, value", [("eta0", 1e300)])
def test_compress_divergence_exit_2(workdir, capsys, key, value):
    archive, cfg = write_fixture(workdir)
    cfg.write_text(json.dumps(with_edits(CONFIG, [(f"defaults.anneal.{key}", value),
                                                  ("defaults.stage_list", ["factorize"])])))
    capsys.readouterr()
    assert run(["compress", archive, cfg, workdir / "out.qtns"]) == 2
    err = capsys.readouterr().err
    assert "layer 'fc1' (factorize): loss became non-finite at iteration 0" in err
    assert not (workdir / "out.qtns").exists()


# a finite f32 layer whose rank-1 fit has a 3.5e38 entry, past the f32 range
OVERFLOW_FC = [[3e38, 3e38], [3e38, 0.0]]
# the stage lists that run decompose with no factorize before it, and the rest
# of those with decompose, whose anneal fit of the original stays in range
DECOMPOSE_FIRST = [["decompose"], ["prune", "decompose"], ["decompose", "prune"],
                   ["decompose", "prune", "factorize"], ["prune", "decompose", "factorize"],
                   ["decompose", "factorize"], ["decompose", "factorize", "prune"]]
FACTORIZE_FIRST = [["factorize", "decompose"], ["factorize", "decompose", "prune"],
                   ["factorize", "prune", "decompose"], ["prune", "factorize", "decompose"]]
WARNINGS = [pytest.param(action, marks=pytest.mark.filterwarnings(action))
            for action in ("default", "error")]


# a finite f32 layer that its rank-1 fit matches in range, but whose stored
# pair does not: u diag(sigma) is the 1 x 1 sigma, 6e38
OVERFLOW_PAIR = [[3e38] * 4]


def compress_overflow_fc(workdir, stage_list, weights=OVERFLOW_FC, max_iters=20):
    save_archive(TensorArchive(entries=[("fc", DenseTensor(np.array(weights)))]),
                 workdir / "in.qtns")
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({"defaults": {"stage_list": stage_list, "rank_svd": 1,
                                            "anneal": {"rank": 1, "max_iters": max_iters}},
                               "layers": {"fc": {}}}))
    return run(["compress", workdir / "in.qtns", cfg, workdir / "out.qtns"])


@pytest.mark.parametrize("warnings", WARNINGS)
@pytest.mark.parametrize("stage_list", DECOMPOSE_FIRST, ids="-".join)
def test_compress_fit_overflowing_f32_exit_2(workdir, capsys, stage_list, warnings):
    """The rank-1 fit rounds to inf in f32, whether decompose hands it on or
    stores it: exit 2 naming the stage, with nothing written."""
    capsys.readouterr()
    assert compress_overflow_fc(workdir, stage_list) == 2
    assert "layer 'fc' (decompose): its result overflows f32" in capsys.readouterr().err
    assert list(workdir.glob("out*")) == []


@pytest.mark.parametrize("warnings", WARNINGS)
@pytest.mark.parametrize("stage_list", DECOMPOSE_FIRST, ids="-".join)
def test_compress_pair_overflowing_f32_exit_2(workdir, capsys, stage_list, warnings):
    """decompose hands on the product of the pair it stores, so a pair past
    the f32 range is decompose's fault whatever follows it; a factorize right
    after it would start from that pair and overflow at iteration 0."""
    capsys.readouterr()
    assert compress_overflow_fc(workdir, stage_list, OVERFLOW_PAIR) == 2
    assert "layer 'fc' (decompose): its result overflows f32" in capsys.readouterr().err
    assert list(workdir.glob("out*")) == []


@pytest.mark.parametrize("warnings", WARNINGS)
@pytest.mark.parametrize("stage_list", FACTORIZE_FIRST, ids="-".join)
def test_compress_factorize_first_fit_overflowing_f32_exit_2(workdir, capsys, stage_list,
                                                             warnings):
    """factorize's random start follows W's scale, so it fits the layer, and
    the rank-1 product it hands on rounds to inf in f32 as decompose's does:
    exit 2 naming factorize, with nothing written."""
    capsys.readouterr()
    assert compress_overflow_fc(workdir, stage_list) == 2
    assert "layer 'fc' (factorize): its result overflows f32" in capsys.readouterr().err
    assert list(workdir.glob("out*")) == []


# factorize stores its own fit of a layer near the f32 maximum: of the 2 x 2
# layer, its best rank-1 fit, |lambda_2| / ||W||_F = 0.3568221 off; the 1 x 4 is its own
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("weights, stage_list, error", [
    (OVERFLOW_FC, ["factorize"], 0.3568221),
    (OVERFLOW_PAIR, ["factorize"], 0.0),
    (OVERFLOW_PAIR, ["prune", "factorize"], 0.0),
], ids=["2x2-factorize", "1x4-factorize", "1x4-prune-factorize"])
def test_compress_factorize_fits_layer_near_f32_max(workdir, weights, stage_list, error):
    """A random start whose range follows W fits these layers as it fits the
    same layers at any other scale, with an f32 pair in range."""
    assert compress_overflow_fc(workdir, stage_list, weights, max_iters=2000) == 0
    out = workdir / "out.qtns"
    assert run(["verify", workdir / "in.qtns", out, f"{out}.report.json"]) == 0
    row, = json.loads((workdir / "out.qtns.report.json").read_text())["per_layer"]
    assert row["recon_error_rel"] == pytest.approx(error, abs=1e-6)


def test_compress_config_not_object_exit_2(workdir, capsys):
    archive, cfg = write_fixture(workdir)
    cfg.write_text(json.dumps([CONFIG]))
    capsys.readouterr()
    assert run(["compress", archive, cfg, workdir / "out.qtns"]) == 2
    assert "config error: config must be a JSON object" in capsys.readouterr().err
    assert not (workdir / "out.qtns").exists()


def test_prune_only_layer_leaves_anneal_values_checked(workdir, capsys):
    """Anneal values are checked on every layer they reach, factorize or not;
    a prune-only layer with no anneal block resolves to one with no rank."""
    archive, cfg = write_fixture(workdir)
    config = {"defaults": {"stage_list": ["prune"], "prune": {"alpha": 0.25},
                           "anneal": {"decay": 5}},
              "layers": {"fc1": {}}}
    cfg.write_text(json.dumps(config))
    out = workdir / "out.qtns"
    capsys.readouterr()
    assert run(["compress", archive, cfg, out]) == 2
    assert "layer 'fc1': decay must be a number in (0, 1], got 5" in capsys.readouterr().err
    assert list(workdir.glob("out*")) == []
    del config["defaults"]["anneal"]
    cfg.write_text(json.dumps(config))
    assert run(["compress", archive, cfg, out]) == 0
    assert run(["verify", archive, out, f"{out}.report.json"]) == 0
    anneal = pipeline.PipelineConfig.from_json(cfg.read_text()).resolved("fc1").anneal
    assert isinstance(anneal, AnnealConfig) and anneal.rank is None


def test_verify_row_on_bit_original_exit_4(workdir, capsys):
    """A report row may name only an original entry compress takes, which a bit tensor is not."""
    rng = np.random.default_rng(0)
    save_archive(TensorArchive(entries=[("fc", DenseTensor(rng.standard_normal((8, 8)))),
                                        ("bits", BitTensor(rng.random((8, 8)) < 0.5))]),
                 workdir / "in.qtns")
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({"layers": {"fc": {"stage_list": ["decompose"], "rank_svd": 2}}}))
    out, report = workdir / "out.qtns", workdir / "out.qtns.report.json"
    assert run(["compress", workdir / "in.qtns", cfg, out]) == 0
    doc = json.loads(report.read_text())
    doc["per_layer"][0]["layer_name"] = "bits"
    report.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", workdir / "in.qtns", out, report]) == 4
    assert "layer 'bits': original is not an f32 tensor of 2 or 4 axes" in capsys.readouterr().err


def strict_json(text):
    """text parsed as JSON, failing on NaN and Infinity, which strict JSON lacks."""
    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")
    return json.loads(text, parse_constant=reject)


# rel_tol: the config's anneal.rel_tol as JSON text; 1e999 is a JSON number
# past the float range, which Python reads as inf, as it does Infinity
@pytest.mark.parametrize("command, rel_tol", [("gen", None), ("compress", None),
                                              ("compress", "Infinity"), ("compress", "1e999")],
                         ids=["gen", "compress", "compress_rel_tol_Infinity",
                              "compress_rel_tol_1e999"])
def test_json_stdout_is_strict_json(workdir, capsys, command, rel_tol):
    archive, cfg = write_fixture(workdir)
    if rel_tol:
        text = json.dumps(with_edits(CONFIG, [("defaults.anneal.rel_tol", "REL_TOL")]))
        cfg.write_text(text.replace('"REL_TOL"', rel_tol))
    args = {"gen": ["gen", workdir / "g.qtns", "--layer", "x=4x4"],
            "compress": ["compress", archive, cfg, workdir / "out.qtns"]}[command]
    capsys.readouterr()
    assert run(["--json", *args]) == 0
    doc = strict_json(capsys.readouterr().out)
    if command == "gen":
        assert doc == {"output": str(workdir / "g.qtns"), "entries": ["x"]}
    else:
        assert doc == strict_json((workdir / "out.qtns.report.json").read_text())
        if rel_tol:  # a non-finite config number is written as null
            assert doc["config_echo"]["defaults"]["anneal"]["rel_tol"] is None


@pytest.mark.parametrize("args, message", [
    (["bench", "--size", "2x2xq"], "bad --size '2x2xq'"),
    (["bench", "--size", "8x8x0"], "bad --size '8x8x0'"),
    (["bench", "--size", "8x8x2", "--reps", 5], "reps must be >= 30, got 5"),
    (["bench", "--size", "8x8x2", "--warmup", 2], "warmup must be >= 5, got 2"),
    (["bench", "--size", "8x8x2", "--variants", "foo"], "unknown variant 'foo'"),
    (["bench", "--size", "8x8x2", "--variants", ","], "no variant given"),
    (["bench", "--size", "8x8x20", "--variants", "factored"],
     "--size 8x8x20: rank 20 exceeds min(m, n) = 8"),
    (["bench", "--size", "8x8x2", "--seed", -1], "seed must be >= 0, got -1"),
    (["gen", "--layer", "fc1=4x4:rank=0"], "bad layer option 'rank=0'"),
    (["gen", "--seed", -1, "--layer", "fc1=4x4"], "seed must be >= 0, got -1"),
    (["gen", "--layer", "fc1=4x4:rank=5"], "layer 'fc1': rank 5 exceeds min(m, n) = 4"),
    # a command-line byte that is not UTF-8 reaches the name as a lone surrogate
    (["gen", "--layer", "a\udcff=4x4"], "layer name 'a\\udcff' is not valid UTF-8"),
    (["gen", "--layer", "a=2x2", "--layer", "fc1=4x4", "--layer", "a=2x2"],
     "layer name 'a' is given by more than one --layer"),
    (["gen", "--layer", "fc1"], "bad --layer 'fc1', expected NAME=SHAPE"),
    (["gen", "--layer", "fc1=4xq"], "bad shape in --layer 'fc1=4xq'"),
    (["gen", "--layer", "fc1=4x0"], "dimensions must be >= 1 in --layer 'fc1=4x0'"),
    *[(["bench", "--size", "8x8x2", "--density", d], "density must be a number in (0, 1]")
      for d in ["0", "-1", "1.5", "nan"]],
    # sizes numpy fails to allocate at once: past memory, and past its address space
    (["gen", "--layer", "a=100000000x100000000"], "layer 'a': Unable to allocate 71.1 PiB"),
    (["bench", "--size", "100000000x100000000x1"],
     "--size 100000000x100000000x1: Unable to allocate 71.1 PiB"),
    (["gen", "--layer", "a=3000000000x3000000000"], "layer 'a': array is too big"),
    (["gen", "--layer", "a=2x100000000000000000000:rank=1"],
     "layer 'a': Maximum allowed dimension exceeded"),
], ids=["size_not_int", "size_0", "reps_5", "warmup_2", "variant_unknown", "variants_empty",
        "rank_past_size", "bench_seed_negative",
        "gen_rank_0", "gen_seed_negative", "gen_rank_past_shape", "gen_name_not_utf8",
        "gen_name_repeated", "gen_no_shape", "gen_dim_not_int", "gen_dim_0", "density_0",
        "density_negative", "density_1.5", "density_nan", "gen_past_memory",
        "bench_past_memory", "gen_past_address_space", "gen_rank_factor_past_address_space"])
def test_bench_gen_bad_args_exit_2(workdir, capsys, args, message):
    out = workdir / "out"
    args = [*args, "--out", out] if args[0] == "bench" else [args[0], out, *args[1:]]
    capsys.readouterr()
    assert run(args) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


NAN, INF = float("nan"), float("inf")
HUGE = 10**400  # a JSON integer past the float range; a valid seed, rank_svd or max_iters
# each config key: (good values, malformed values); a malformed value may also
# be one that fails only once the layer's shape is known (rank 100)
CONFIG_MENU = {
    "seed": ([MISSING, 0, -5, 2**70], ["x", 1.5, None, True, False]),
    "stage_list": ([MISSING, ["prune"], ["decompose", "factorize"], ["factorize", "prune"]],
                   [[], ["prune", "prune"], ["bogus"], "prune", 5, [["prune"]]]),
    "rank_svd": ([1, 3, 100], [MISSING, 0, -1, 2.5, "3", None, True, False]),
    "prune.alpha": ([MISSING, 0.0, 0.3], [1.0, -0.1, NAN, "a", None, True, False, HUGE]),
    "prune.stages": ([MISSING, 1, 3], [0, 2.5, "2", True, False, HUGE]),
    "prune.entangle_prob": ([MISSING, 0.0, 0.2], [1.5, NAN, True, False, HUGE]),
    "prune.seed": ([MISSING, 0, -5, 2**70], [1.5, "x", True, False]),
    "anneal.rank": ([1, 3], [MISSING, 100, 0, 2.5, "2", True, False, HUGE]),
    "anneal.eta0": ([MISSING, 0.01, None], [0.0, -1.0, NAN, INF, "x", True, False, HUGE]),
    "anneal.decay": ([MISSING, 0.9, 1.0], [0.0, 1.5, NAN, None, True, False, HUGE]),
    "anneal.max_iters": ([MISSING, 1, 30], [0, 2.5, "5", True, False]),
    "anneal.rel_tol": ([MISSING, 1e-3, INF], [0.0, -1.0, NAN, True, False, HUGE]),
    "anneal.seed": ([MISSING, 0, 2**70], [-1, 1.5, True, False]),
}
FAULTS = [(key, v) for key, (_, bad) in CONFIG_MENU.items() for v in bad]
FAULTS += [("prune", []), ("anneal", "x"), ("seeed", 1)]


def good_config():
    return st.fixed_dictionaries(
        {key: st.sampled_from(good) for key, (good, _) in CONFIG_MENU.items()}
    ).map(lambda values: with_edits({}, values.items()))


def faults():
    # at most one fault per top-level key, so a block is never both edited and replaced
    return st.lists(st.sampled_from(FAULTS), max_size=2, unique_by=lambda f: f[0].split(".")[0])


@pytest.fixture(scope="module")
def config_fuzz_base(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("config_fuzz")
    rng = np.random.default_rng(3)
    save_archive(TensorArchive(entries=[("fc1", DenseTensor(rng.standard_normal((6, 5)))),
                                        ("conv1", DenseTensor(rng.standard_normal((3, 2, 2, 2))))]),
                 workdir / "in.qtns")
    return workdir


@settings(max_examples=100, deadline=None)
@given(good_config(), faults(), faults())
def test_config_fuzz_exits_documented(config_fuzz_base, defaults, default_faults, conv1_faults):
    """Configs with malformed values among good ones exit 0 or 2 from compress,
    never 1, and what compress writes passes verify."""
    workdir = config_fuzz_base
    cfg, out = workdir / "cfg.json", workdir / "out.qtns"
    layers = {"fc1": {}, "conv1": with_edits({}, conv1_faults)}
    cfg.write_text(json.dumps({"defaults": with_edits(defaults, default_faults), "layers": layers}))
    out.unlink(missing_ok=True)
    code = run(["compress", workdir / "in.qtns", cfg, out])
    event(f"compress exit {code}")
    assert code in (0, 2)
    if code == 0:
        assert run(["verify", workdir / "in.qtns", out, f"{out}.report.json"]) == 0


@settings(max_examples=200, deadline=None)
@given(good_config(), faults(), faults())
def test_seed_override_checks_config_seeds(defaults, default_faults, conv1_faults):
    """An override seed changes no fault and nothing but the seeds: per layer,
    resolved(name) and resolved(name, 7) both succeed or raise the same message,
    and the latter's block seeds are derive_seed(7, name, block)."""
    layers = {"fc1": {}, "conv1": with_edits({}, conv1_faults)}
    try:
        config = pipeline.PipelineConfig(with_edits(defaults, default_faults), layers)
    except ConfigError:
        return  # a fault of the structure, which no seed reaches
    for name in layers:
        outcomes = []
        for seed_override in (None, 7):
            try:
                outcomes.append(config.resolved(name, seed_override))
            except ConfigError as exc:
                outcomes.append(str(exc))
        plain, seeded = outcomes
        event("resolved" if isinstance(seeded, pipeline.LayerConfig) else "config error")
        if isinstance(plain, str) or isinstance(seeded, str):
            assert plain == seeded
            continue
        derived = {block: replace(getattr(plain, block), seed=derive_seed(7, name, block))
                   for block in pipeline.BLOCK_CONFIGS}
        assert seeded == replace(plain, **derived)


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """A compressed fixture, and the offsets of every header byte (magic,
    version, count and each entry's name, axes, dims and dtype) of both archives."""
    workdir = tmp_path_factory.mktemp("fuzz")
    archive, cfg = write_fixture(workdir)
    assert run(["compress", archive, cfg, workdir / "out.qtns"]) == 0
    headers = {}
    for path in (archive, workdir / "out.qtns"):
        offsets, pos = list(range(12)), 12
        for name, t in load_archive(path).entries:
            size = 4 + len(name.encode()) + 4 + 8 * len(t.shape) + 4
            offsets += range(pos, pos + size)
            pos += size + t.nbytes
        headers[path.name] = offsets
    return workdir, headers


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["in.qtns", "out.qtns"]),
    st.booleans(),
    st.lists(st.tuples(st.booleans(), st.integers(0, 2**20), st.integers(1, 255)), max_size=3),
    st.integers(0, 2**20),
)
def test_archive_fuzz_exits_documented(fuzz_base, target, truncate, flips, cut):
    """Truncated or byte-flipped archives exit 0, 3 or 4 from inspect and
    verify, never 1."""
    workdir, headers = fuzz_base
    raw = bytearray((workdir / target).read_bytes())
    for in_header, pos, xor in flips:
        pos = headers[target][pos % len(headers[target])] if in_header else pos % len(raw)
        raw[pos] ^= xor
    if truncate:
        raw = raw[: cut % len(raw)]
    bad = workdir / "bad.qtns"
    bad.write_bytes(bytes(raw))
    archives = {"in.qtns": workdir / "in.qtns", "out.qtns": workdir / "out.qtns", target: bad}
    report = workdir / "out.qtns.report.json"
    assert run(["inspect", bad]) in (0, 3)
    assert run(["verify", archives["in.qtns"], archives["out.qtns"], report]) in (0, 3, 4)


@pytest.fixture
def mallopt_calls(monkeypatch):
    """The (param, value) pairs passed to mallopt, recorded instead of made,
    with _hold_freed_memory's once-per-process cache cleared around the test."""
    calls = []
    monkeypatch.setattr(cli, "_mallopt", lambda: lambda param, value: calls.append((param, value)))
    cli._hold_freed_memory.cache_clear()
    yield calls
    cli._hold_freed_memory.cache_clear()


def test_hold_freed_memory_once_per_process(workdir, mallopt_calls):
    for name in ("a.qtns", "b.qtns"):
        assert run(["gen", workdir / name, "--layer", "x=4x4"]) == 0
    cli._hold_freed_memory()
    assert mallopt_calls == [(cli.M_MMAP_THRESHOLD, 32 << 20), (cli.M_TRIM_THRESHOLD, 64 << 20)]


@pytest.mark.parametrize("error", [AttributeError, OSError])
def test_hold_freed_memory_without_mallopt(workdir, monkeypatch, error):
    def lookup(name):
        raise error("no mallopt")

    monkeypatch.setattr(cli.ctypes, "CDLL", lookup)
    cli._hold_freed_memory.cache_clear()
    try:
        assert cli._mallopt() is None
        assert run(["gen", workdir / "a.qtns", "--layer", "x=4x4"]) == 0
    finally:
        cli._hold_freed_memory.cache_clear()


def test_cli_compress_writes_the_library_bytes(workdir, mallopt_calls):
    """The library leaves the allocator alone, and the CLI, which sets its
    policy, writes the same archive and report bytes."""
    archive, cfg = write_fixture(workdir)  # gen goes through main: start the record after it
    cli._hold_freed_memory.cache_clear()
    mallopt_calls.clear()
    out, report = pipeline.compress_archive(load_archive(archive),
                                            pipeline.PipelineConfig.from_json(cfg.read_text()))
    save_archive(out, workdir / "lib.qtns")
    assert mallopt_calls == []
    assert run(["compress", archive, cfg, workdir / "cli.qtns"]) == 0
    assert len(mallopt_calls) == 2
    assert (workdir / "cli.qtns").read_bytes() == (workdir / "lib.qtns").read_bytes()
    assert (workdir / "cli.qtns.report.json").read_text() == report.to_json()
