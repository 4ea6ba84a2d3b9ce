"""Batch command-line front end.

Subcommands: preprocess, train-vae, reconstruct, train-seg, eval-seg,
render, rerun. Every run writes a manifest.json recording the argument
vector, config, input checksums, and seed; `rerun` checks the inputs
against the recorded checksums, then replays the manifest into a fresh
output directory and reproduces reports and loss curves byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .idm import segmentation_feature
from .manifest import RunManifest, read_manifest, sha256_file, write_manifest
from .optim import AdamState
from .preprocess import preprocess_sketch
from .segmentation import (SegConfig, cross_validate, predict_labels,
                           train_segmenter, extract_feature)
from .sketch import BBox, CATEGORY_CLASSES, parse_annotated, parse_quickdraw, write_sketches
from .svg import render_grid, render_sketch
from .vae import VaeConfig, VaeModel, reconstruct_sketch, train

DATA_DIR_ENV = "STROKESEG_DATA_DIR"
NORMALIZED_CANVAS = BBox(0.0, 0.0, 255.0, 255.0)

LOSS_COLUMNS = ("step", "displacement_nll", "pen_ce", "kl_div", "kl_weight", "total")


def _resolve_data(path: str) -> Path:
    p = Path(path)
    if p.exists():
        return p
    root = os.environ.get(DATA_DIR_ENV)
    if root and (Path(root) / path).exists():
        return Path(root) / path
    raise FileNotFoundError(f"cannot find data file {path!r}"
                            + (f" (also tried under {root})" if root else ""))


def _detect_and_parse(path: Path):
    with open(path, encoding="utf-8") as fh:
        first = ""
        for line in fh:
            if line.strip():
                first = line
                break
    annotated = False
    try:
        annotated = "labels" in json.loads(first)
    except json.JSONDecodeError:
        pass
    return (parse_annotated(path) if annotated else parse_quickdraw(path)), annotated


def _load_vae_config(path: str | None) -> VaeConfig:
    if path is None:
        return VaeConfig()
    text = Path(path).read_text(encoding="utf-8").strip()
    if text.startswith("{"):
        overrides = json.loads(text)
    else:
        overrides = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            overrides[key.strip()] = json.loads(value.strip())
    return VaeConfig.from_dict({**VaeConfig().to_dict(), **overrides})


def _write_loss_csv(path: Path, history) -> None:
    lines = [",".join(LOSS_COLUMNS)]
    for row in history:
        lines.append(",".join(repr(row[c]) if c != "step" else str(row[c])
                              for c in LOSS_COLUMNS))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _emit_manifest(out_dir: Path, command: str, argv: list, config: dict,
                   inputs: list, seed: int, outputs: list, started: float) -> None:
    manifest = RunManifest(
        command=command,
        argv=list(argv),
        config=config,
        input_checksums={str(p): sha256_file(p) for p in inputs},
        seed=seed,
        outputs=[str(o) for o in outputs],
        timings={"wall_seconds": round(time.monotonic() - started, 3)},
    )
    write_manifest(out_dir / "manifest.json", manifest)


def _require_not_negative(flag: str, value) -> None:
    if not value >= 0:  # also true for NaN
        raise ValueError(f"{flag} must be at least 0, got {value}")


def cmd_preprocess(args, argv) -> int:
    started = time.monotonic()
    _require_not_negative("--epsilon", args.epsilon)
    _require_not_negative("--min-len", args.min_len)
    data = _resolve_data(args.data)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sketches, _ = _detect_and_parse(data)
    kept, skipped = [], 0
    for sk in sketches:
        try:
            kept.append(preprocess_sketch(sk, epsilon=args.epsilon,
                                          min_length=args.min_len))
        except ValueError:
            skipped += 1
    out_file = out_dir / "preprocessed.ndjson"
    write_sketches(out_file, kept)
    if skipped:
        print(f"skipped {skipped} degenerate sketch(es)", file=sys.stderr)
    _emit_manifest(out_dir, "preprocess", argv, {
        "epsilon": args.epsilon, "min_len": args.min_len}, [data],
        args.seed, [out_file], started)
    return 0


def cmd_train_vae(args, argv) -> int:
    started = time.monotonic()
    _require_not_negative("--epochs", args.epochs)
    data = _resolve_data(args.data)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sketches, _ = _detect_and_parse(data)
    rng = np.random.default_rng(args.seed)
    if args.resume:
        model, adam_state = load_checkpoint(args.resume)
    else:
        config = _load_vae_config(args.config)
        model = VaeModel.init(config, rng)
        adam_state = AdamState()
    ckpt_dir = out_dir / "checkpoints"
    history = []
    if args.epochs > 0:
        model, history = train(model, sketches, args.epochs, rng,
                               checkpoint_dir=ckpt_dir, adam_state=adam_state)
    else:
        ckpt_dir.mkdir(parents=True, exist_ok=True)
    final = ckpt_dir / "final.npz"
    save_checkpoint(final, model, adam_state)
    loss_csv = out_dir / "loss.csv"
    _write_loss_csv(loss_csv, history)
    inputs = [data] + [Path(p) for p in (args.config, args.resume) if p]
    _emit_manifest(out_dir, "train-vae", argv, model.config.to_dict(),
                   inputs, args.seed, [final, loss_csv], started)
    return 0


def cmd_reconstruct(args, argv) -> int:
    started = time.monotonic()
    taus = [float(t) for t in args.tau.split(",") if t]
    if not taus:
        raise ValueError("--tau needs at least one value")
    for tau in taus:
        if not 0.0 < tau <= 1.0:
            raise ValueError(f"--tau values must be in (0, 1], got {tau}")
    data = _resolve_data(args.data)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    model, _ = load_checkpoint(args.checkpoint)
    sketches, _ = _detect_and_parse(data)
    rng = np.random.default_rng(args.seed)
    outputs = []
    for i, sk in enumerate(sketches):
        panels = [(sk, "input")]
        panels += [(rec, f"tau={tau:g}")
                   for rec, tau in zip(reconstruct_sketch(model, sk, taus, rng), taus)]
        path = out_dir / f"recon_{i:04d}.svg"
        path.write_text(render_grid(panels), encoding="utf-8")
        outputs.append(path)
    _emit_manifest(out_dir, "reconstruct", argv, model.config.to_dict(),
                   [data, Path(args.checkpoint)], args.seed, outputs, started)
    return 0


def _seg_feature_fn(variant: str, encoder: VaeModel | None):
    if variant == "nn":
        if encoder is None:
            raise ValueError("feature 'nn' needs --encoder")
        fn = lambda sk, st: extract_feature(encoder, st)
    else:
        fn = lambda sk, st: segmentation_feature(sk, st, NORMALIZED_CANVAS, variant)
    # each stroke's feature once, on first use, shared by every fold, sweep
    # size and final fit
    table = {}

    def feature(sk, st):
        if id(st) not in table:
            table[id(st)] = fn(sk, st)
        return table[id(st)]
    return feature


def _seg_dataset(sketches, feature_fn, classes):
    feats, labels = [], []
    index = {c: i for i, c in enumerate(classes)}
    for sk in sketches:
        for st in sk.strokes:
            feats.append(feature_fn(sk, st))
            labels.append(index[st.label])
    return np.array(feats), np.array(labels)


def _seg_train_fn(feature_fn, classes, config: SegConfig, train_size=None):
    def fn(train_sketches, rng):
        if train_size is not None and len(train_sketches) > train_size:
            idx = rng.permutation(len(train_sketches))[:train_size]
            train_sketches = [train_sketches[i] for i in idx]
        feats, labels = _seg_dataset(train_sketches, feature_fn, classes)
        model = train_segmenter(feats, labels, classes, config, rng)
        return lambda sk: predict_labels(model, feature_fn, sk)
    return fn


def _confusion_dict(report) -> dict:
    return {t: {p: int(report.confusion[i, j])
                for j, p in enumerate(report.classes)}
            for i, t in enumerate(report.classes)}


def _run_segmentation(args, argv, command: str) -> int:
    started = time.monotonic()
    sizes = [s for s in (args.train_sizes or "").split(",") if s]
    bad = [s for s in sizes if not s.strip().isdecimal() or int(s) < 1]
    if bad:
        raise ValueError(f"--train-sizes needs positive integers, got {bad[0]!r}")
    _require_not_negative("--epochs", args.epochs)
    data = _resolve_data(args.data)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sketches, annotated = _detect_and_parse(data)
    if not annotated:
        raise ValueError("segmentation needs annotated data with labels")
    category = args.category or sketches[0].category
    if category not in CATEGORY_CLASSES:
        raise ValueError(f"unknown category {category!r}")
    classes = CATEGORY_CLASSES[category]
    stray = sorted({st.label for sk in sketches for st in sk.strokes} - set(classes))
    if stray:
        raise ValueError(f"labels {stray} are not {category} classes {classes}")
    encoder = None
    inputs = [data]
    if args.encoder:
        encoder = load_checkpoint(_resolve_data(args.encoder))[0]
        inputs.append(_resolve_data(args.encoder))
    feature_fn = _seg_feature_fn(args.feature, encoder)
    config = SegConfig(epochs=args.epochs)
    rng = np.random.default_rng(args.seed)
    report = cross_validate(sketches, args.folds,
                            _seg_train_fn(feature_fn, classes, config),
                            rng, classes=classes)
    payload = {
        "command": command,
        "category": category,
        "feature": args.feature,
        "encoder": args.encoder,
        "folds": args.folds,
        "fold_accuracies": report.fold_accuracies,
        "fold_stroke_counts": report.fold_stroke_counts,
        "mean_accuracy": report.mean_accuracy,
        "confusion": _confusion_dict(report),
    }
    if sizes:
        sweep = {}
        for size in map(int, sizes):
            size_report = cross_validate(
                sketches, args.folds,
                _seg_train_fn(feature_fn, classes, config, train_size=size),
                np.random.default_rng(args.seed + size), classes=classes)
            sweep[str(size)] = {
                "mean_accuracy": size_report.mean_accuracy,
                "fold_accuracies": size_report.fold_accuracies,
            }
        payload["train_sizes"] = sweep
    outputs = []
    if command == "train-seg":
        feats, labels = _seg_dataset(sketches, feature_fn, classes)
        final = train_segmenter(feats, labels, classes, config,
                                np.random.default_rng(args.seed))
        seg_path = out_dir / "segmenter.npz"
        meta = json.dumps({"classes": classes, "keep_prob": final.keep_prob,
                           "category": category, "feature": args.feature},
                          sort_keys=True)
        np.savez(seg_path, meta=np.frombuffer(meta.encode(), dtype=np.uint8),
                 **final.params)
        outputs.append(seg_path)
    report_path = out_dir / "report.json"
    report_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    outputs.append(report_path)
    _emit_manifest(out_dir, command, argv, config.to_dict(), inputs,
                   args.seed, outputs, started)
    return 0


def cmd_render(args, argv) -> int:
    started = time.monotonic()
    data = _resolve_data(args.data)
    sketches, annotated = _detect_and_parse(data)
    if not 0 <= args.index < len(sketches):
        raise ValueError(f"--index {args.index} out of range")
    sk = sketches[args.index]
    classes = CATEGORY_CLASSES.get(sk.category) if annotated else None
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(render_sketch(sk, classes=classes), encoding="utf-8")
    _emit_manifest(out.parent, "render", argv, {"index": args.index},
                   [data], args.seed, [out], started)
    return 0


def cmd_rerun(args, argv) -> int:
    manifest = read_manifest(args.manifest)
    for path, digest in manifest.input_checksums.items():
        if sha256_file(path) != digest:  # a missing input raises OSError
            raise ValueError(f"input {path} changed since {args.manifest} was recorded")
    replay = list(manifest.argv)
    if "--out" in replay:
        replay[replay.index("--out") + 1] = args.out
    else:
        replay += ["--out", args.out]
    return main(replay)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strokeseg",
        description="Stroke-level sketch VAE, segmentation, and baselines.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=True):
        p.add_argument("--seed", type=int, default=0,
                       help="rng seed (default 0; all commands are seeded)")
        p.add_argument("--out", required=out_required, help="output directory")

    p = sub.add_parser("preprocess", help="normalize, resample, simplify")
    p.add_argument("--data", required=True)
    p.add_argument("--epsilon", type=float, default=2.0,
                   help="polyline simplification tolerance (px)")
    p.add_argument("--min-len", type=float, default=15.0,
                   help="minimum stroke arc length (px)")
    common(p)
    p.set_defaults(fn=cmd_preprocess)

    p = sub.add_parser("train-vae", help="train the stroke VAE")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None,
                   help="JSON or key=value file overriding model defaults")
    p.add_argument("--epochs", type=int, default=1)
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    common(p)
    p.set_defaults(fn=cmd_train_vae)

    p = sub.add_parser("reconstruct", help="render reconstruction grids")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--tau", default="0.01,0.5,1.0",
                   help="comma-separated temperatures")
    common(p)
    p.set_defaults(fn=cmd_reconstruct)

    for name in ("train-seg", "eval-seg"):
        p = sub.add_parser(name, help="stroke segmentation with 5-fold CV")
        p.add_argument("--data", required=True, help="annotated sketches")
        p.add_argument("--encoder", default=None,
                       help="encoder checkpoint (any category)")
        p.add_argument("--category", default=None)
        p.add_argument("--feature", default="nn",
                       choices=["nn", "idm", "idm-spt", "idm-spt-con"])
        p.add_argument("--folds", type=int, default=5)
        p.add_argument("--epochs", type=int, default=200,
                       help="MLP epoch budget (early stopping may end sooner)")
        p.add_argument("--train-sizes", default=None,
                       help="comma-separated sweep of training-set sizes")
        common(p)
        p.set_defaults(fn=lambda a, v, _n=name: _run_segmentation(a, v, _n))

    p = sub.add_parser("render", help="render one sketch to SVG")
    p.add_argument("--data", required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("rerun", help="replay a recorded run")
    p.add_argument("manifest")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_rerun)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, argv)
    except (ValueError, OSError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
