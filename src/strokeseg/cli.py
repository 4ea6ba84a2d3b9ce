"""Batch command-line front end.

Subcommands: preprocess, train-vae, reconstruct, train-seg, eval-seg,
render, rerun. A command checks its flags, reads its inputs, only then
creates its output directory, and returns (output directory, config,
inputs, outputs); `main` times the run and writes its manifest.json with
the argument vector, seed and input checksums. `rerun` checks a manifest's
inputs against their checksums, then replays its argv through `main` into a
fresh output directory, reproducing reports and loss curves byte for byte.
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


def _require_not_negative(flag: str, value) -> None:
    if not value >= 0:  # also true for NaN
        raise ValueError(f"{flag} must be at least 0, got {value}")


def _read_data(path: str):
    """Resolve and parse a --data file: (resolved path, sketches, annotated)."""
    data = _resolve_data(path)
    sketches, annotated = _detect_and_parse(data)
    if not sketches:
        raise ValueError(f"no sketches in {data}")
    return data, sketches, annotated


def _out_dir(path) -> Path:
    """Create a command's output directory; call it once its inputs are checked."""
    Path(path).mkdir(parents=True, exist_ok=True)
    return Path(path)


def cmd_preprocess(args):
    _require_not_negative("--epsilon", args.epsilon)
    _require_not_negative("--min-len", args.min_len)
    data, sketches, _ = _read_data(args.data)
    kept, skipped = [], 0
    for sk in sketches:
        try:
            kept.append(preprocess_sketch(sk, epsilon=args.epsilon,
                                          min_length=args.min_len))
        except ValueError:
            skipped += 1
    out_dir = _out_dir(args.out)
    out_file = out_dir / "preprocessed.ndjson"
    write_sketches(out_file, kept)
    if skipped:
        print(f"skipped {skipped} degenerate sketch(es)", file=sys.stderr)
    return out_dir, {"epsilon": args.epsilon, "min_len": args.min_len}, [data], [out_file]


def cmd_train_vae(args):
    _require_not_negative("--epochs", args.epochs)
    if args.config and args.resume:
        raise ValueError("--config and --resume exclude each other: "
                         "a resumed run keeps its checkpoint's config")
    data, sketches, _ = _read_data(args.data)
    rng = np.random.default_rng(args.seed)
    if args.resume:
        model, adam_state = load_checkpoint(args.resume)
    else:
        config = _load_vae_config(args.config)
        model = VaeModel.init(config, rng)
        adam_state = AdamState()
    out_dir = Path(args.out)
    ckpt_dir = _out_dir(out_dir / "checkpoints")
    history = []
    if args.epochs > 0:
        model, history = train(model, sketches, args.epochs, rng,
                               checkpoint_dir=ckpt_dir, adam_state=adam_state)
    final = ckpt_dir / "final.npz"
    save_checkpoint(final, model, adam_state)
    loss_csv = out_dir / "loss.csv"
    _write_loss_csv(loss_csv, history)
    inputs = [data] + [Path(p) for p in (args.config, args.resume) if p]
    return out_dir, model.config.to_dict(), inputs, [final, loss_csv]


def cmd_reconstruct(args):
    try:
        taus = [float(t) for t in args.tau.split(",") if t]
    except ValueError as e:
        raise ValueError(f"--tau: {e}") from None
    if not taus:
        raise ValueError("--tau needs at least one value")
    for tau in taus:
        if not 0.0 < tau <= 1.0:
            raise ValueError(f"--tau values must be in (0, 1], got {tau}")
    data, sketches, _ = _read_data(args.data)
    model, _ = load_checkpoint(args.checkpoint)
    out_dir = _out_dir(args.out)
    rng = np.random.default_rng(args.seed)
    outputs = []
    for i, sk in enumerate(sketches):
        panels = [(sk, "input")]
        panels += [(rec, f"tau={tau:g}")
                   for rec, tau in zip(reconstruct_sketch(model, sk, taus, rng), taus)]
        path = out_dir / f"recon_{i:04d}.svg"
        path.write_text(render_grid(panels), encoding="utf-8")
        outputs.append(path)
    return out_dir, model.config.to_dict(), [data, Path(args.checkpoint)], outputs


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


def cmd_segmentation(args):
    sizes = [s for s in (args.train_sizes or "").split(",") if s]
    bad = [s for s in sizes if not s.strip().isdecimal() or int(s) < 1]
    if bad:
        raise ValueError(f"--train-sizes needs positive integers, got {bad[0]!r}")
    _require_not_negative("--epochs", args.epochs)
    data, sketches, annotated = _read_data(args.data)
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
        inputs.append(_resolve_data(args.encoder))
        encoder = load_checkpoint(inputs[-1])[0]
    feature_fn = _seg_feature_fn(args.feature, encoder)
    config = SegConfig(epochs=args.epochs)
    rng = np.random.default_rng(args.seed)
    report = cross_validate(sketches, args.folds,
                            _seg_train_fn(feature_fn, classes, config),
                            rng, classes=classes)
    payload = {
        "command": args.command,
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
    out_dir = _out_dir(args.out)
    outputs = []
    if args.command == "train-seg":
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
    return out_dir, config.to_dict(), inputs, outputs


def cmd_render(args):
    data, sketches, annotated = _read_data(args.data)
    if not 0 <= args.index < len(sketches):
        raise ValueError(f"--index {args.index} out of range")
    sk = sketches[args.index]
    classes = CATEGORY_CLASSES.get(sk.category) if annotated else None
    out = Path(args.out)
    _out_dir(out.parent)
    out.write_text(render_sketch(sk, classes=classes), encoding="utf-8")
    return out.parent, {"index": args.index}, [data], [out]


def _replay_argv(args) -> list:
    """The recorded argv of a manifest whose inputs are unchanged, writing to --out."""
    manifest = read_manifest(args.manifest)
    for path, digest in manifest.input_checksums.items():
        if sha256_file(path) != digest:  # a missing input raises OSError
            raise ValueError(f"input {path} changed since {args.manifest} was recorded")
    replay = list(manifest.argv)
    if "--out" in replay:
        i = replay.index("--out") + 1
        replay[i:i + 1] = [args.out]  # also when a hand-edited argv ends in --out
    else:
        replay += ["--out", args.out]
    return replay


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strokeseg",
        description="Stroke-level sketch VAE, segmentation, and baselines.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, fn, data_help=None, out_help="output directory"):
        p = sub.add_parser(name, help=help)
        p.add_argument("--data", required=True, help=data_help)
        p.add_argument("--seed", type=int, default=0,
                       help="rng seed (default 0; all commands are seeded)")
        p.add_argument("--out", required=True, help=out_help)
        p.set_defaults(fn=fn)
        return p

    p = command("preprocess", "normalize, resample, simplify", cmd_preprocess)
    p.add_argument("--epsilon", type=float, default=2.0,
                   help="polyline simplification tolerance (px)")
    p.add_argument("--min-len", type=float, default=15.0,
                   help="minimum stroke arc length (px)")

    p = command("train-vae", "train the stroke VAE", cmd_train_vae)
    p.add_argument("--config", default=None,
                   help="JSON or key=value file overriding model defaults")
    p.add_argument("--epochs", type=int, default=1)
    p.add_argument("--resume", default=None,
                   help="checkpoint to continue from (keeps its config)")

    p = command("reconstruct", "render reconstruction grids", cmd_reconstruct)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--tau", default="0.01,0.5,1.0",
                   help="comma-separated temperatures")

    for name in ("train-seg", "eval-seg"):
        p = command(name, "stroke segmentation with 5-fold CV", cmd_segmentation,
                    data_help="annotated sketches")
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

    p = command("render", "render one sketch to SVG", cmd_render,
                out_help="output SVG path")
    p.add_argument("--index", type=int, default=0)

    p = sub.add_parser("rerun", help="replay a recorded run")
    p.add_argument("manifest")
    p.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        if args.command == "rerun":
            return main(_replay_argv(args))
        out_dir, config, inputs, outputs = args.fn(args)
        write_manifest(out_dir / "manifest.json", RunManifest(
            command=args.command, argv=argv, config=config, seed=args.seed,
            input_checksums={str(p): sha256_file(p) for p in inputs},
            outputs=[str(o) for o in outputs],
            timings={"wall_seconds": round(time.monotonic() - started, 3)}))
    except (ValueError, OSError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
