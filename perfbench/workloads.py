"""The three workloads: one operation each, driven through strokeseg.cli.main.

An operation runs one or two CLI commands into a fresh output directory,
then checks what they wrote. `run(out_dir)` returns an OpResult holding
perf_counter intervals, which the run script turns into seconds, and the
failed checks; a command that exits non-zero raises CommandFailed.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import sizes

LOSS_COLUMNS = ["step", "displacement_nll", "pen_ce", "kl_div", "kl_weight", "total"]
LOSS_END_STEPS = 3       # train_loss_end is the mean `total` over these last steps
LOSS_END_CEILING = 85.0  # nats; an untrained model starts near 90-100
SEG_ACCURACY_FLOOR = 0.75  # 4 of 6 chair strokes are legs: always "leg" scores 0.667
MIN_STROKE_PX = 15.0
CANVAS = 255.0
# Scaling to the canvas may overshoot 255 by a rounding error (one ulp,
# 255.00000000000003, has been seen); the range check allows this much.
CANVAS_ROUNDING_PX = 1e-9


@dataclass
class OpResult:
    span: tuple                                  # (start, end) of the whole operation
    items: float                                 # work items, for items_per_s
    item_span: tuple                             # interval the items took
    stages: dict = field(default_factory=dict)   # command -> (start, end)
    stats: dict = field(default_factory=dict)    # workload-specific figures
    failures: list = field(default_factory=list)
    ran: bool = True                             # False: a command failed or crashed


class CommandFailed(RuntimeError):
    pass


def _run_cli(cli, argv: list, stages: dict, stage: str | None = None) -> tuple:
    start = time.perf_counter()
    code = cli.main(argv)
    stages[stage or argv[0]] = span = (start, time.perf_counter())
    if code != 0:
        raise CommandFailed(f"`strokeseg {argv[0]}` exited with {code}")
    return span


def _strokes(path: Path) -> list:
    """Every stroke of a line-JSON sketch file as an (N, 2) array, per sketch."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                out.append([np.column_stack(s) for s in json.loads(line)["drawing"]])
    return out


class VaeTrain:
    """One `train-vae --epochs 1` of the mid-size VAE on the preprocessed corpus."""

    name = "vae_train"
    item_unit = "real strokes trained"

    def __init__(self, setup: Path, seed: int, cli):
        self.cli, self.seed = cli, seed
        self.data = setup / "pre" / "preprocessed.ndjson"
        self.config = setup / "vae_mid.json"
        self.strokes = sum(len(sk) for sk in _strokes(self.data))
        self.first_loss_csv = None

    def run(self, out: Path) -> OpResult:
        failures, stages, stats = [], {}, {}
        span = _run_cli(self.cli, [
            "train-vae", "--data", str(self.data), "--config", str(self.config),
            "--epochs", "1", "--seed", str(self.seed), "--out", str(out)], stages)
        stats["train_loss_end"] = self._check_loss(out, failures)
        return OpResult(span, self.strokes, span, stages, stats, failures)

    def _check_loss(self, out: Path, failures: list) -> float:
        text = (out / "loss.csv").read_text(encoding="utf-8")
        if self.first_loss_csv is None:
            self.first_loss_csv = text
        elif text != self.first_loss_csv:
            failures.append("loss.csv differs from the first operation's")
        lines = text.strip().splitlines()
        if lines[0].split(",") != LOSS_COLUMNS:
            failures.append(f"loss.csv header {lines[0]!r}")
            return math.nan
        rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
        with np.load(out / "checkpoints" / "final.npz") as ck:
            steps = json.loads(bytes(ck["meta"]).decode("utf-8"))["step"]
        if [int(r[0]) for r in rows] != list(range(steps)):
            failures.append(f"loss.csv has {len(rows)} rows for {steps} steps")
        if not all(math.isfinite(v) for r in rows for v in r):
            failures.append("non-finite value in loss.csv")
        if not rows:
            return math.nan
        end = float(np.mean([r[-1] for r in rows[-LOSS_END_STEPS:]]))
        if not end <= LOSS_END_CEILING:
            failures.append(f"train_loss_end {end:.3f} above {LOSS_END_CEILING}")
        return end


class SegCv:
    """5-fold `eval-seg --feature nn`, then `--feature idm-spt-con`."""

    name = "seg_cv"
    item_unit = "strokes cross-validated"

    def __init__(self, setup: Path, seed: int, cli):
        self.cli, self.seed = cli, seed
        self.data = setup / "chairs.ndjson"
        self.encoder = setup / "encoder" / "checkpoints" / "final.npz"
        self.strokes = sum(len(sk) for sk in _strokes(self.data))
        self.first_reports = {}

    def run(self, out: Path) -> OpResult:
        failures, stages, stats, accuracies = [], {}, {}, []
        start = time.perf_counter()
        for feature in sizes.SEG_FEATURES:
            argv = ["eval-seg", "--data", str(self.data), "--feature", feature,
                    "--folds", str(sizes.SEG_FOLDS), "--epochs", str(sizes.SEG_EPOCHS),
                    "--seed", str(self.seed), "--out", str(out / feature)]
            if feature == "nn":
                argv += ["--encoder", str(self.encoder)]
            _run_cli(self.cli, argv, stages, stage=f"eval-seg {feature}")
            report = (out / feature / "report.json").read_bytes()
            first = self.first_reports.setdefault(feature, report)
            if report != first:
                failures.append(f"report.json of {feature} differs from the first operation's")
            accuracies.append(json.loads(report)["mean_accuracy"])
        span = (start, time.perf_counter())
        stats["seg_accuracy"] = float(np.mean(accuracies))
        if stats["seg_accuracy"] < SEG_ACCURACY_FLOOR:
            failures.append(f"seg_accuracy {stats['seg_accuracy']:.4f} "
                            f"below {SEG_ACCURACY_FLOOR}")
        items = self.strokes * len(sizes.SEG_FEATURES)
        return OpResult(span, items, span, stages, stats, failures)


def _svg_panels(svg: str) -> list:
    """Per panel (input first, then one per temperature) the list of path
    `d` strings."""
    panels = []
    for chunk in svg.split("<rect ")[1:]:
        panels.append([p.split('"', 1)[0] for p in chunk.split(' d="')[1:]])
    return panels


class PrepRecon:
    """`preprocess` of the raw sketches, then `reconstruct` of the first few
    preprocessed ones at three temperatures.

    items_per_s counts raw sketches per second of `preprocess`. Decoded
    points per second of `reconstruct` are reported too but not bounded:
    a one-epoch model's sample lengths swing with the seed, and
    re-encoding the input strokes, not decoding, takes most of the time.
    """

    name = "prep_recon"
    item_unit = "raw sketches preprocessed"

    def __init__(self, setup: Path, seed: int, cli):
        self.cli, self.seed = cli, seed
        self.raw = setup / "raw.ndjson"
        self.checkpoint = setup / "encoder" / "checkpoints" / "final.npz"
        self.sketches = len(_strokes(self.raw))
        self.first_cold = None
        self.first_pre = None

    def run(self, out: Path) -> OpResult:
        failures, stages, stats = [], {}, {}
        start = time.perf_counter()
        pre_span = _run_cli(self.cli, ["preprocess", "--data", str(self.raw), "--seed",
                                       str(self.seed), "--out", str(out / "pre")],
                            stages)
        pre = out / "pre" / "preprocessed.ndjson"
        lines = pre.read_text(encoding="utf-8").splitlines(keepends=True)
        self._check_preprocessed(pre, failures)
        subset = out / "recon_input.ndjson"
        subset.write_text("".join(lines[:sizes.RECON_SKETCHES]), encoding="utf-8")
        _run_cli(self.cli, [
            "reconstruct", "--checkpoint", str(self.checkpoint), "--data", str(subset),
            "--tau", ",".join(f"{t:g}" for t in sizes.RECON_TAUS),
            "--seed", str(self.seed), "--out", str(out / "recon")], stages)
        span = (start, time.perf_counter())
        stats["decoded_points"] = self._check_recon(
            out / "recon", min(len(lines), sizes.RECON_SKETCHES), failures)
        return OpResult(span, self.sketches, pre_span, stages, stats, failures)

    def _check_preprocessed(self, pre: Path, failures: list) -> None:
        text = pre.read_text(encoding="utf-8")
        if self.first_pre is None:
            self.first_pre = text
        elif text != self.first_pre:
            failures.append("preprocessed.ndjson differs from the first operation's")
        for i, sketch in enumerate(_strokes(pre)):
            for stroke in sketch:
                if stroke.min() < -CANVAS_ROUNDING_PX or stroke.max() > CANVAS + CANVAS_ROUNDING_PX:
                    failures.append(f"sketch {i}: point outside [0, {CANVAS:g}]")
                    return
                length = np.linalg.norm(np.diff(stroke, axis=0), axis=1).sum()
                if length < MIN_STROKE_PX:
                    failures.append(f"sketch {i}: stroke of {length:.2f} px kept")
                    return

    def _check_recon(self, recon: Path, expected: int, failures: list) -> int:
        files = sorted(recon.glob("recon_*.svg"))
        if len(files) != expected:
            failures.append(f"{len(files)} reconstruction grids for {expected} sketches")
        points, cold = 0, []
        for f in files:
            panels = _svg_panels(f.read_text(encoding="utf-8"))
            if len(panels) != 1 + len(sizes.RECON_TAUS):
                failures.append(f"{f.name}: {len(panels)} panels")
                continue
            for paths in panels[1:]:
                points += sum(d.count("M ") + d.count(" L ") for d in paths)
            cold.append(panels[1 + sizes.RECON_TAUS.index(0.01)])
        if self.first_cold is None:
            self.first_cold = cold
        elif cold != self.first_cold:
            failures.append("reconstruction at tau=0.01 did not repeat point for point")
        return points


WORKLOADS = {w.name: w for w in (VaeTrain, SegCv, PrepRecon)}
