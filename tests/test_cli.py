import copy
import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import event, given, settings
import hypothesis.strategies as st

from tensorpress import pipeline
from tensorpress.cli import main
from tensorpress.tensors import DenseTensor, TensorArchive, load_archive, save_archive


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
    # the report's error must come from the f32 sigma the archive stores
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
    archive, cfg = write_fixture(workdir)
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
    or the archive (replace maps entry names to functions of their data, append
    maps the original archive to entries added at the end), run verify."""
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
        entries = [(n, DenseTensor(replace[n](t.data)) if n in replace else t)
                   for n, t in load_archive(out).entries if n != drop_entry]
        entries += append(load_archive(archive)) if append is not None else []
        save_archive(TensorArchive(entries=entries), out)
    capsys.readouterr()
    code = run(["verify", archive, out, report])
    return code, capsys.readouterr().err


def test_verify_archive_missing_entry_exit_4(workdir, capsys):
    code, err = verify_tampered(workdir, capsys, drop_entry="fc1.w1")
    assert code == 4
    assert "fc1.w1" in err


def test_verify_kind_changed_exit_4(workdir, capsys):
    def edit(doc):
        doc["per_layer"][0]["kind"] = "svd"
    code, err = verify_tampered(workdir, capsys, edit_report=edit)
    assert code == 4
    assert "fc1.u" in err


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
    def edit(doc):
        doc["per_layer"][0]["kind"] = "bogus"
    code, err = verify_tampered(workdir, capsys, edit_report=edit)
    assert code == 4
    assert "bogus" in err


@pytest.mark.parametrize("tamper, message", [
    ({"replace": {"fc2": lambda data: 2 * data}}, "fc2: pass-through entry differs"),
    ({"drop_entry": "fc2"}, "extra [], missing ['fc2']"),
    ({"append": lambda orig: [("extra", DenseTensor(np.ones(3)))]}, "extra ['extra']"),
    ({"append": lambda orig: [("fc1", orig.get("fc1"))]}, "extra ['fc1']"),
    ({"edit_report": lambda doc: doc["per_layer"].append(doc["per_layer"][0])},
     "report row 1 repeats layer 'fc1'"),
], ids=["passthrough_doubled", "passthrough_dropped", "extra_entry", "original_kept",
        "row_repeated"])
def test_verify_whole_archive_exit_4(workdir, capsys, tamper, message):
    code, err = verify_tampered(workdir, capsys, **tamper)
    assert code == 4
    assert message in err


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


@pytest.mark.parametrize("edit, message", [
    (np.zeros_like, "keeps no weight"),
    (lambda mask: 1.5 * mask, "holds values other than 0, 1"),  # 1.5 casts to 1
])
def test_verify_mask_keeps_nothing_or_not_binary_exit_4(workdir, capsys, edit, message):
    code, err = verify_tampered(workdir, capsys, stage_list=["prune"],
                                replace={"fc1.mask": edit})
    assert code == 4
    assert message in err


@pytest.mark.parametrize("stage_list, entry, shape", [
    (None, "fc1.w1", (16, 3)),
    (None, "fc1.w2", (1, 16)),
    (None, "fc1.mask", (16, 8)),
    (["decompose"], "fc1.u", (15, 4)),
    (["decompose"], "fc1.sigma", (3,)),
    (["decompose"], "fc1.v", (16, 3)),
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


@pytest.mark.parametrize("tamper, message", [
    ({"replace": {"fc1": lambda data: np.where(data == 0, 1e-12, data)}},
     "fc1 holds weights where its mask is 0"),
    ({"replace": {"fc1.mask": lambda mask: np.where(mask == 0, -0.0, mask)}},
     "fc1.mask holds values other than 0, 1"),
], ids=["weight_under_zero_mask", "mask_negative_zero"])
def test_verify_masked_layer_one_encoding_exit_4(workdir, capsys, tamper, message):
    code, err = verify_tampered(workdir, capsys, stage_list=["prune"], **tamper)
    assert code == 4
    assert message in err


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
    pytest.param({"defaults.anneal.seed": -1}, [], "layer 'fc1': seed must be >= 0",
                 id="anneal_seed_negative"),
    pytest.param({"defaults.anneal.eta0": float("nan")}, [], "layer 'fc1': eta0 must be",
                 id="eta0_nan"),
    pytest.param({"defaults.anneal.eta0": float("inf")}, [], "layer 'fc1': eta0 must be",
                 id="eta0_inf"),
    pytest.param({"defaults.anneal.init_scale": float("nan")}, [],
                 "layer 'fc1': init_scale must be", id="init_scale_nan"),
    pytest.param({"defaults.anneal.init_scale": float("inf")}, [],
                 "layer 'fc1': init_scale must be", id="init_scale_inf"),
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
    pytest.param({"defaults.anneal.init_scale": 10**400}, [],
                 r"layer 'fc1': init_scale must be a number", id="init_scale_int_past_float"),
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow on the way to inf
@pytest.mark.parametrize("key, value", [("eta0", 1e300), ("init_scale", 1e200)])
def test_compress_divergence_exit_2(workdir, capsys, key, value):
    archive, cfg = write_fixture(workdir)
    cfg.write_text(json.dumps(with_edits(CONFIG, [(f"defaults.anneal.{key}", value)])))
    capsys.readouterr()
    assert run(["compress", archive, cfg, workdir / "out.qtns"]) == 2
    err = capsys.readouterr().err
    assert "layer 'fc1' (factorize): loss became non-finite at iteration 0" in err
    assert not (workdir / "out.qtns").exists()


@pytest.mark.parametrize("args, message", [
    (["bench", "--size", "2x2xq"], "bad --size '2x2xq'"),
    (["bench", "--size", "8x8x0"], "bad --size '8x8x0'"),
    (["bench", "--size", "8x8x2", "--reps", 5], "reps must be >= 30, got 5"),
    (["bench", "--size", "8x8x2", "--warmup", 2], "warmup must be >= 5, got 2"),
    (["bench", "--size", "8x8x2", "--variants", "foo"], "unknown variant 'foo'"),
    (["bench", "--size", "8x8x2", "--seed", -1], "seed must be >= 0, got -1"),
    (["gen", "--layer", "fc1=4x4:rank=0"], "bad layer option 'rank=0'"),
    (["gen", "--seed", -1, "--layer", "fc1=4x4"], "seed must be >= 0, got -1"),
], ids=["size_not_int", "size_0", "reps_5", "warmup_2", "variant_unknown", "bench_seed_negative",
        "gen_rank_0", "gen_seed_negative"])
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
    "prune.stages": ([MISSING, 1, 3], [0, 2.5, "2", True, False]),
    "prune.entangle_prob": ([MISSING, 0.0, 0.2], [1.5, NAN, True, False, HUGE]),
    "prune.seed": ([MISSING, 0, -5, 2**70], [1.5, "x", True, False]),
    "anneal.rank": ([1, 3], [MISSING, 100, 0, 2.5, "2", True, False, HUGE]),
    "anneal.init_scale": ([MISSING, 0.1, None], [0.0, NAN, INF, True, False, HUGE]),
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
            pos += size + 4 * t.size
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
