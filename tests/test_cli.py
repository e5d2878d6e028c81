import hashlib
import json

import numpy as np
import pytest

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
    assert run(["gen", workdir / "in.qtns", "--seed", 5,
                "--layer", "fc1=16x16", "--layer", "fc2=8x8"]) == 0
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
