"""End-to-end tests for the batch CLI: every subcommand, manifests, reruns."""

import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from strokeseg.checkpoint import load_checkpoint
from strokeseg.cli import LOSS_COLUMNS, main
from strokeseg.manifest import read_manifest, sha256_file
from strokeseg.sketch import parse_annotated, parse_quickdraw, write_sketches

from synthdata import chairs

TINY_CFG = {
    "enc_hidden": 4,
    "dec_hidden": 8,
    "num_mixtures": 2,
    "latent_size": 3,
    "batch_size": 2,
    "learning_rate": 1e-3,
    "keep_prob": 1.0,
    "max_len": 64,
}


@pytest.fixture
def raw_file(tmp_path):
    """Unlabeled sketches in line-JSON form."""
    path = tmp_path / "raw.ndjson"
    write_sketches(path, chairs(4, np.random.default_rng(0), labeled=False))
    return path


@pytest.fixture
def annotated_file(tmp_path):
    path = tmp_path / "annotated.ndjson"
    write_sketches(path, chairs(6, np.random.default_rng(1)))
    return path


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_CFG), encoding="utf-8")
    return path


def read_csv_rows(path):
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def test_preprocess_defaults(raw_file, tmp_path):
    out = tmp_path / "pre"
    assert main(["preprocess", "--data", str(raw_file), "--out", str(out)]) == 0
    result = out / "preprocessed.ndjson"
    assert result.exists()
    sketches = parse_quickdraw(result)
    assert len(sketches) == 4
    for sk in sketches:
        pts = sk.all_points()
        assert pts.min() >= -1e-9 and pts.max() <= 255.0 + 1e-9
        for st in sk.strokes:
            assert st.arc_length >= 15.0


def test_preprocess_manifest(raw_file, tmp_path):
    out = tmp_path / "pre"
    argv = ["preprocess", "--data", str(raw_file), "--epsilon", "1.5",
            "--min-len", "10", "--out", str(out)]
    assert main(argv) == 0
    manifest = read_manifest(out / "manifest.json")
    assert manifest.command == "preprocess"
    assert manifest.argv == argv
    assert manifest.config == {"epsilon": 1.5, "min_len": 10.0}
    assert str(raw_file) in manifest.input_checksums
    checksum = manifest.input_checksums[str(raw_file)]
    assert len(checksum) == 64 and int(checksum, 16) >= 0
    assert manifest.seed == 0
    assert [Path(o).name for o in manifest.outputs] == ["preprocessed.ndjson"]


def test_train_vae_writes_checkpoint_and_losses(raw_file, config_file, tmp_path):
    out = tmp_path / "run"
    assert main(["train-vae", "--data", str(raw_file), "--config",
                 str(config_file), "--epochs", "1", "--out", str(out)]) == 0
    model, _ = load_checkpoint(out / "checkpoints" / "final.npz")
    assert model.config.enc_hidden == 4
    assert model.step > 0
    header, rows = read_csv_rows(out / "loss.csv")
    assert header == list(LOSS_COLUMNS)
    assert len(rows) == model.step
    assert [int(r[0]) for r in rows] == list(range(model.step))
    for row in rows:
        total = float(row[-1])
        assert np.isfinite(total)


def test_train_vae_zero_epochs_saves_initial_model(raw_file, config_file, tmp_path):
    out = tmp_path / "run0"
    assert main(["train-vae", "--data", str(raw_file), "--config",
                 str(config_file), "--epochs", "0", "--out", str(out)]) == 0
    model, adam = load_checkpoint(out / "checkpoints" / "final.npz")
    assert model.step == 0
    assert adam.t == 0
    header, rows = read_csv_rows(out / "loss.csv")
    assert header == list(LOSS_COLUMNS)
    assert rows == []


def test_train_vae_resume_continues_step_counter(raw_file, config_file, tmp_path):
    first = tmp_path / "first"
    main(["train-vae", "--data", str(raw_file), "--config", str(config_file),
          "--epochs", "1", "--out", str(first)])
    ckpt = first / "checkpoints" / "final.npz"
    steps_per_epoch = load_checkpoint(ckpt)[0].step
    second = tmp_path / "second"
    assert main(["train-vae", "--data", str(raw_file), "--resume", str(ckpt),
                 "--epochs", "1", "--out", str(second)]) == 0
    resumed, adam = load_checkpoint(second / "checkpoints" / "final.npz")
    assert resumed.step == 2 * steps_per_epoch
    assert adam.t == 2 * steps_per_epoch
    _, rows = read_csv_rows(second / "loss.csv")
    assert [int(r[0]) for r in rows] == list(range(steps_per_epoch,
                                                   2 * steps_per_epoch))


def test_train_vae_rejects_unknown_config_key(raw_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"hidden_size": 8}), encoding="utf-8")
    rc = main(["train-vae", "--data", str(raw_file), "--config", str(bad),
               "--epochs", "1", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("override", [
    {"enc_hidden": "abc"}, {"enc_hidden": 8.5}, {"batch_size": True}, {"keep_prob": 0},
    {"learning_rate": -1e-3}, {"grad_clip": 0},
])
def test_train_vae_rejects_bad_config_value(raw_file, tmp_path, capsys, override):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**TINY_CFG, **override}), encoding="utf-8")
    rc = main(["train-vae", "--data", str(raw_file), "--config", str(bad),
               "--epochs", "1", "--out", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert next(iter(override)) in err[0]


def test_checkpoint_with_unknown_config_key_is_one_error_line(raw_file, config_file,
                                                              tmp_path, capsys):
    run = tmp_path / "run"
    main(["train-vae", "--data", str(raw_file), "--config", str(config_file),
          "--epochs", "0", "--out", str(run)])
    bad = tmp_path / "bad.npz"
    with np.load(run / "checkpoints" / "final.npz") as z:
        arrays = {k: z[k] for k in z.files}
    meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    meta["config"]["hidden_size"] = 8
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(bad, **arrays)
    capsys.readouterr()
    assert main(["reconstruct", "--checkpoint", str(bad), "--data", str(raw_file),
                 "--out", str(tmp_path / "recon")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert str(bad) in err[0] and "hidden_size" in err[0]


def test_reconstruct_renders_one_grid_per_sketch(raw_file, config_file, tmp_path):
    run = tmp_path / "run"
    main(["train-vae", "--data", str(raw_file), "--config", str(config_file),
          "--epochs", "1", "--out", str(run)])
    out = tmp_path / "recon"
    assert main(["reconstruct", "--checkpoint",
                 str(run / "checkpoints" / "final.npz"), "--data",
                 str(raw_file), "--tau", "0.01,0.5,1.0",
                 "--out", str(out)]) == 0
    svgs = sorted(out.glob("recon_*.svg"))
    assert [p.name for p in svgs] == [f"recon_{i:04d}.svg" for i in range(4)]
    text = svgs[0].read_text(encoding="utf-8")
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    for title in ("input", "tau=0.01", "tau=0.5", "tau=1"):
        assert title in text


def test_reconstruct_requires_a_temperature(raw_file, config_file, tmp_path, capsys):
    run = tmp_path / "run"
    main(["train-vae", "--data", str(raw_file), "--config", str(config_file),
          "--epochs", "0", "--out", str(run)])
    rc = main(["reconstruct", "--checkpoint",
               str(run / "checkpoints" / "final.npz"), "--data", str(raw_file),
               "--tau", "", "--out", str(tmp_path / "recon")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_key_value_config_matches_its_json_twin(raw_file, config_file, tmp_path):
    kv = tmp_path / "tiny.cfg"
    kv.write_text("# the TINY_CFG model as key=value lines\n\n"
                  + "".join(f"{k} = {json.dumps(v)}\n" for k, v in TINY_CFG.items()),
                  encoding="utf-8")
    configs = []
    for name, cfg in (("json", config_file), ("kv", kv)):
        assert main(["train-vae", "--data", str(raw_file), "--config", str(cfg),
                     "--epochs", "0", "--out", str(tmp_path / name)]) == 0
        configs.append(load_checkpoint(tmp_path / name / "checkpoints" / "final.npz")[0].config)
    assert configs[0] == configs[1]
    assert configs[0].dec_hidden == TINY_CFG["dec_hidden"]


@pytest.mark.parametrize("damage", ["truncated", "missing_param", "foreign", "old_format",
                                    "non_finite", "config_wider", "short_param"])
def test_bad_checkpoint_is_one_error_line(raw_file, annotated_file, config_file,
                                          tmp_path, capsys, damage):
    run = tmp_path / "run"
    main(["train-vae", "--data", str(raw_file), "--config", str(config_file),
          "--epochs", "0", "--out", str(run)])
    good = run / "checkpoints" / "final.npz"
    bad = tmp_path / "bad.npz"
    if damage == "truncated":
        bad.write_bytes(good.read_bytes()[:-40])
    elif damage == "foreign":
        bad.write_text("not a checkpoint\n", encoding="utf-8")
    else:
        with np.load(good) as z:
            arrays = {k: z[k] for k in z.files if k != "param.w_mu" or damage != "missing_param"}
        if damage in ("old_format", "config_wider"):
            meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
            if damage == "old_format":
                meta["format_version"] = 1
            else:
                meta["config"]["enc_hidden"] = 2 * TINY_CFG["enc_hidden"]
            arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        elif damage == "short_param":
            arrays["param.w_mu"] = arrays["param.w_mu"][:3]
        elif damage == "non_finite":
            arrays["param.w_y"] = arrays["param.w_y"].copy()
            arrays["param.w_y"][0, 0] = np.nan
        np.savez(bad, **arrays)
    capsys.readouterr()
    for argv in (["reconstruct", "--checkpoint", str(bad), "--data", str(raw_file),
                  "--out", str(tmp_path / "recon")],
                 ["eval-seg", "--data", str(annotated_file), "--feature", "nn",
                  "--encoder", str(bad), "--folds", "3", "--epochs", "1",
                  "--out", str(tmp_path / "seg")]):
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert str(bad) in err[0] and "pickle" not in err[0]
        assert damage != "non_finite" or "param.w_y" in err[0]
        assert damage != "config_wider" or "param.enc_bwd.b has shape (16,)" in err[0]
        assert damage != "short_param" or "param.w_mu has shape (3, 3)" in err[0]


def test_render_single_sketch(annotated_file, tmp_path):
    out = tmp_path / "sketch.svg"
    assert main(["render", "--data", str(annotated_file), "--index", "1",
                 "--out", str(out)]) == 0
    root = ET.fromstring(out.read_text(encoding="utf-8"))
    assert root.tag.endswith("svg")
    # annotated input gets a legend naming the label classes
    assert "back" in out.read_text(encoding="utf-8")


def test_render_index_out_of_range(annotated_file, tmp_path, capsys):
    rc = main(["render", "--data", str(annotated_file), "--index", "99",
               "--out", str(tmp_path / "x.svg")])
    assert rc == 1
    assert "out of range" in capsys.readouterr().err


def test_eval_seg_writes_report(annotated_file, tmp_path):
    out = tmp_path / "seg"
    assert main(["eval-seg", "--data", str(annotated_file), "--feature", "idm",
                 "--folds", "3", "--epochs", "3", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["command"] == "eval-seg"
    assert report["category"] == "chair"
    assert report["feature"] == "idm"
    assert len(report["fold_accuracies"]) == 3
    assert 0.0 <= report["mean_accuracy"] <= 1.0
    classes = ["back", "leg", "seat"]
    assert sorted(report["confusion"]) == classes
    total = sum(report["confusion"][t][p] for t in classes for p in classes)
    assert total == sum(len(sk.strokes) for sk in parse_annotated(annotated_file))
    assert not (out / "segmenter.npz").exists()


def test_train_seg_also_saves_model(annotated_file, tmp_path):
    out = tmp_path / "seg"
    assert main(["train-seg", "--data", str(annotated_file), "--feature", "idm",
                 "--folds", "3", "--epochs", "3", "--out", str(out)]) == 0
    assert (out / "report.json").exists()
    with np.load(out / "segmenter.npz") as bundle:
        meta = json.loads(bundle["meta"].tobytes().decode())
    assert meta["classes"] == ["back", "leg", "seat"]
    assert meta["feature"] == "idm"


def test_seg_train_sizes_sweep(annotated_file, tmp_path):
    out = tmp_path / "seg"
    assert main(["eval-seg", "--data", str(annotated_file), "--feature", "idm",
                 "--folds", "3", "--epochs", "3", "--train-sizes", "2,4",
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert sorted(report["train_sizes"]) == ["2", "4"]
    for entry in report["train_sizes"].values():
        assert len(entry["fold_accuracies"]) == 3


def test_eval_seg_checks_folds_before_computing_features(annotated_file, tmp_path,
                                                         monkeypatch, capsys):
    import strokeseg.cli as cli
    calls = []
    real = cli.segmentation_feature
    monkeypatch.setattr(cli, "segmentation_feature",
                        lambda *args: calls.append(args) or real(*args))
    rc = main(["eval-seg", "--data", str(annotated_file), "--feature", "idm",
               "--folds", "9", "--out", str(tmp_path / "seg")])
    assert rc == 1
    assert "folds" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("command", ["eval-seg", "train-seg"])
@pytest.mark.parametrize("flag,value,named", [("--train-sizes", "3,abc", "'abc'"),
                                              ("--train-sizes", "0,3", "'0'"),
                                              ("--train-sizes", "2,-1", "'-1'"),
                                              ("--epochs", "-1", "-1")])
def test_seg_rejects_bad_arguments_before_computing_features(
        annotated_file, tmp_path, monkeypatch, capsys, command, flag, value, named):
    import strokeseg.cli as cli
    calls = []
    real = cli.segmentation_feature
    monkeypatch.setattr(cli, "segmentation_feature",
                        lambda *args: calls.append(args) or real(*args))
    rc = main([command, "--data", str(annotated_file), "--feature", "idm",
               "--folds", "3", "--epochs", "3", flag, value,
               "--out", str(tmp_path / "seg")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {flag}")
    assert err[0].endswith(named)
    assert calls == []
    assert not (tmp_path / "seg" / "report.json").exists()


@pytest.mark.parametrize("command,flag,value,named", [
    ("preprocess", "--epsilon", "-1", "-1.0"),
    ("preprocess", "--epsilon", "nan", "nan"),
    ("preprocess", "--min-len", "-5", "-5.0"),
    ("preprocess", "--min-len", "nan", "nan"),
    ("train-vae", "--epochs", "-2", "-2"),
    ("reconstruct", "--tau", "0.5,2", "2.0"),
    ("reconstruct", "--tau", "0", "0.0"),
    ("reconstruct", "--tau", "nan", "nan"),
    ("reconstruct", "--tau", "0.5,abc", "'abc'"),
])
def test_rejects_bad_arguments_before_reading_data(raw_file, tmp_path, monkeypatch, capsys,
                                                   command, flag, value, named):
    import strokeseg.cli as cli
    calls = []
    monkeypatch.setattr(cli, "_detect_and_parse", lambda *args: calls.append(args))
    monkeypatch.setattr(cli, "load_checkpoint", lambda *args: calls.append(args))
    out = tmp_path / "out"
    checkpoint = ["--checkpoint", "model.npz"] if command == "reconstruct" else []
    assert main([command, flag, value, *checkpoint, "--data", str(raw_file),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {flag}")
    assert err[0].endswith(named)
    assert calls == []
    assert not out.exists()


def test_train_vae_refuses_config_with_resume(raw_file, config_file, tmp_path,
                                              monkeypatch, capsys):
    import strokeseg.cli as cli
    calls = []
    monkeypatch.setattr(cli, "_detect_and_parse", lambda *args: calls.append(args))
    monkeypatch.setattr(cli, "load_checkpoint", lambda *args: calls.append(args))
    out = tmp_path / "out"
    assert main(["train-vae", "--data", str(raw_file), "--resume", "model.npz",
                 "--config", str(config_file), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "--config" in err[0] and "--resume" in err[0]
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["preprocess", "train-vae", "reconstruct", "eval-seg",
                                     "render"])
def test_empty_data_file_is_one_error_line(tmp_path, capsys, command):
    empty = tmp_path / "empty.ndjson"
    empty.write_text("", encoding="utf-8")
    out = tmp_path / "out"
    checkpoint = ["--checkpoint", "model.npz"] if command == "reconstruct" else []
    assert main([command, "--data", str(empty), *checkpoint,
                 "--out", str(out / "x.svg" if command == "render" else out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: no sketches in {empty}"]
    assert not out.exists()


def test_eval_seg_rejects_category_that_does_not_match_labels(annotated_file, tmp_path,
                                                             monkeypatch, capsys):
    import strokeseg.cli as cli
    calls = []
    real = cli.segmentation_feature
    monkeypatch.setattr(cli, "segmentation_feature",
                        lambda *args: calls.append(args) or real(*args))
    rc = main(["eval-seg", "--data", str(annotated_file), "--feature", "idm",
               "--category", "cat", "--out", str(tmp_path / "seg")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    # chairs' "leg" is also a cat class; "back" and "seat" are not
    assert "['back', 'seat']" in err[0]
    assert calls == []


def test_eval_seg_tolerates_a_class_missing_from_training_folds(tmp_path):
    sketches = chairs(6, np.random.default_rng(1))
    for sk in sketches:
        sk.strokes = [st for st in sk.strokes if st.label != "seat"]
    data = tmp_path / "no_seat.ndjson"
    write_sketches(data, sketches)
    out = tmp_path / "seg"
    assert main(["eval-seg", "--data", str(data), "--feature", "idm",
                 "--folds", "3", "--epochs", "3", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["confusion"]["seat"] == {"back": 0, "leg": 0, "seat": 0}
    assert sum(report["confusion"]["back"].values()) > 0


def test_seg_nn_feature_requires_encoder(annotated_file, tmp_path, capsys):
    rc = main(["eval-seg", "--data", str(annotated_file), "--feature", "nn",
               "--folds", "3", "--out", str(tmp_path / "seg")])
    assert rc == 1
    assert "encoder" in capsys.readouterr().err


def test_seg_rejects_unlabeled_data(raw_file, tmp_path, capsys):
    rc = main(["eval-seg", "--data", str(raw_file), "--feature", "idm",
               "--out", str(tmp_path / "seg")])
    assert rc == 1
    assert "annotated" in capsys.readouterr().err


def test_seg_nn_feature_uses_encoder_checkpoint(annotated_file, raw_file,
                                                config_file, tmp_path):
    run = tmp_path / "enc"
    main(["train-vae", "--data", str(raw_file), "--config", str(config_file),
          "--epochs", "0", "--out", str(run)])
    out = tmp_path / "seg"
    assert main(["eval-seg", "--data", str(annotated_file), "--feature", "nn",
                 "--encoder", str(run / "checkpoints" / "final.npz"),
                 "--folds", "3", "--epochs", "3", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["feature"] == "nn"
    assert report["encoder"].endswith("final.npz")


def test_rerun_reproduces_loss_curve_byte_for_byte(raw_file, config_file,
                                                   tmp_path):
    first = tmp_path / "first"
    main(["train-vae", "--data", str(raw_file), "--config", str(config_file),
          "--epochs", "2", "--seed", "7", "--out", str(first)])
    second = tmp_path / "second"
    assert main(["rerun", str(first / "manifest.json"),
                 "--out", str(second)]) == 0
    assert (second / "loss.csv").read_bytes() == (first / "loss.csv").read_bytes()
    m1, a1 = load_checkpoint(first / "checkpoints" / "final.npz")
    m2, a2 = load_checkpoint(second / "checkpoints" / "final.npz")
    assert m1.step == m2.step
    for key in m1.params:
        np.testing.assert_array_equal(m1.params[key], m2.params[key])
    np.testing.assert_array_equal(a1.m[key], a2.m[key])


def test_rerun_reproduces_report_byte_for_byte(annotated_file, tmp_path):
    first = tmp_path / "first"
    main(["eval-seg", "--data", str(annotated_file), "--feature", "idm",
          "--folds", "3", "--epochs", "3", "--seed", "3", "--out", str(first)])
    second = tmp_path / "second"
    assert main(["rerun", str(first / "manifest.json"),
                 "--out", str(second)]) == 0
    assert ((second / "report.json").read_bytes()
            == (first / "report.json").read_bytes())


@pytest.mark.parametrize("changed", ["eval_seg_data", "train_vae_config"])
def test_rerun_refuses_a_changed_input(annotated_file, raw_file, config_file, tmp_path,
                                       capsys, changed):
    first = tmp_path / "first"
    if changed == "eval_seg_data":
        argv, edited = ["eval-seg", "--data", str(annotated_file), "--feature", "idm",
                        "--folds", "3", "--epochs", "1"], annotated_file
    else:
        argv, edited = ["train-vae", "--data", str(raw_file), "--config", str(config_file),
                        "--epochs", "0"], config_file
    assert main(argv + ["--out", str(first)]) == 0
    if changed == "eval_seg_data":
        lines = edited.read_text(encoding="utf-8").splitlines(keepends=True)
        edited.write_text("".join(lines[:-1]), encoding="utf-8")
    else:
        edited.write_text(json.dumps({**TINY_CFG, "dec_hidden": 16}), encoding="utf-8")
    capsys.readouterr()
    second = tmp_path / "second"
    assert main(["rerun", str(first / "manifest.json"), "--out", str(second)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert str(edited) in err[0] and "changed" in err[0]
    assert not second.exists()


def test_data_dir_env_fallback(annotated_file, tmp_path, monkeypatch):
    monkeypatch.setenv("STROKESEG_DATA_DIR", str(annotated_file.parent))
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "sketch.svg"
    assert main(["render", "--data", annotated_file.name, "--index", "0",
                 "--out", str(out)]) == 0
    assert out.exists()


def test_missing_data_file_exits_nonzero(tmp_path, capsys):
    rc = main(["render", "--data", str(tmp_path / "nope.ndjson"),
               "--out", str(tmp_path / "x.svg")])
    assert rc == 1
    assert "cannot find data file" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["preprocess", "train-vae", "reconstruct", "train-seg",
                                     "eval-seg", "render"])
def test_every_run_records_a_manifest_that_rerun_reproduces(raw_file, annotated_file,
                                                             config_file, tmp_path, command):
    main(["train-vae", "--data", str(raw_file), "--config", str(config_file),
          "--epochs", "0", "--out", str(tmp_path / "enc")])
    ckpt = str(tmp_path / "enc" / "checkpoints" / "final.npz")
    argv = {
        "preprocess": ["--data", str(raw_file), "--epsilon", "1.5"],
        "train-vae": ["--data", str(raw_file), "--config", str(config_file), "--epochs", "1"],
        "reconstruct": ["--checkpoint", ckpt, "--data", str(raw_file), "--tau", "0.5"],
        "train-seg": ["--data", str(annotated_file), "--feature", "nn", "--encoder", ckpt,
                      "--folds", "3", "--epochs", "2"],
        "eval-seg": ["--data", str(annotated_file), "--feature", "idm", "--folds", "3",
                     "--epochs", "2", "--train-sizes", "2"],
        "render": ["--data", str(annotated_file), "--index", "1"],
    }[command]
    runs = []
    for name in ("first", "second"):
        out = tmp_path / name
        target = str(out / "sketch.svg" if command == "render" else out)
        if name == "first":
            argv = [command, *argv, "--seed", "4", "--out", target]
            assert main(argv) == 0
        else:
            assert main(["rerun", str(tmp_path / "first" / "manifest.json"),
                         "--out", target]) == 0
        manifest = read_manifest(out / "manifest.json").to_dict()
        assert manifest["command"] == manifest["argv"][0] == command
        assert manifest["argv"] == argv[:-1] + [target]
        assert manifest["input_checksums"]
        for path, digest in manifest["input_checksums"].items():
            assert sha256_file(path) == digest
        assert manifest["outputs"] and all(Path(o).exists() for o in manifest["outputs"])
        assert manifest.pop("timings")["wall_seconds"] >= 0
        manifest["argv"] = manifest["argv"][:-1]
        manifest["outputs"] = [str(Path(o).relative_to(out)) for o in manifest["outputs"]]
        runs.append(manifest)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("damage", ["not_json", "extra_key", "missing_key", "array",
                                    "argv_empty", "argv_not_a_list", "argv_not_strings",
                                    "argv_other_command", "checksums_not_an_object"])
def test_malformed_manifest_is_one_error_line(raw_file, tmp_path, capsys, damage):
    first = tmp_path / "first"
    assert main(["preprocess", "--data", str(raw_file), "--out", str(first)]) == 0
    data = json.loads((first / "manifest.json").read_text(encoding="utf-8"))
    if damage == "extra_key":
        data["note"] = "hand-edited"
    elif damage == "missing_key":
        del data["timings"]
    elif damage == "array":
        data = [data]
    elif damage == "checksums_not_an_object":
        data["input_checksums"] = list(data["input_checksums"])
    elif damage.startswith("argv"):
        data["argv"] = {"argv_empty": [], "argv_not_a_list": "preprocess",
                        "argv_not_strings": ["preprocess", "--data", 3],
                        "argv_other_command": ["render", *data["argv"][1:]]}[damage]
    bad = tmp_path / "bad.json"
    bad.write_text("{" if damage == "not_json" else json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    second = tmp_path / "second"
    assert main(["rerun", str(bad), "--out", str(second)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(bad) in err[0]
    assert not second.exists()
