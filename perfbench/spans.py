"""Span tracing of strokeseg's layers from outside the package.

`Tracer.install()` replaces each traced public function with a wrapper in
every strokeseg module that holds a reference to it: a function imported
by name (`from .optim import adam_update`) is bound in the importing
module too, so `strokeseg.vae.adam_update` and
`strokeseg.segmentation.adam_update` are wrapped along with
`strokeseg.optim.adam_update`. `uninstall()` puts the originals back.

A span is (name, start, end, parent index, operation id). Spans stay in
memory and are written out when the run ends. A span's self time is its
duration minus the time its child spans cover; a layer's self time is the
sum over its functions. Work a layer does inside an untraced helper of
another layer is charged to the traced caller (for example, the autodiff
forward ops an LSTM step builds count as `recurrent`).

Counters are exact and taken at the same boundaries. Work the tracer
itself does to count (walking the autodiff tape, say) runs inside a
`perfbench.count` span, so it is excluded from every layer's time.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("cli", "autodiff", "recurrent", "mixture", "vae", "offsets", "optim",
          "segmentation", "idm", "preprocess", "sketch", "checkpoint",
          "manifest", "svg")

# Computed bytes of one Adam update per parameter element: float64 reads of
# param, grad, m and v, and writes of param, m and v.
ADAM_BYTES_PER_ELEMENT = 8 * 7

COUNT_SPAN = "perfbench.count"


def _tape_nodes(root) -> int:
    """Nodes backward() visits from `root`: itself plus every ancestor
    that requires grad."""
    seen = {id(root)}
    stack = [root]
    n = 0
    while stack:
        node = stack.pop()
        n += 1
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return n


def _on_backward(tr, args, kwargs, result):
    tr.count("autodiff.backward_calls")
    tr.count("autodiff.tape_nodes", _tape_nodes(args[0]))


def _on_adam(tr, args, kwargs, result):
    grads = args[1] if len(args) > 1 else kwargs["grads"]
    elements = sum(g.size for g in grads.values())
    tr.count("optim.adam_updates")
    tr.count("optim.adam_params", elements)
    tr.count("optim.adam_bytes", elements * ADAM_BYTES_PER_ELEMENT)


def _on_batches(tr, args, kwargs, result):
    for b in result:
        tr.count("offsets.real_steps", int(b.mask.sum()))
        tr.count("offsets.padded_steps", int(b.mask.size))


def _on_train_segmenter(tr, args, kwargs, result):
    tr.count("segmentation.epochs_run", len(result.history))


def _on_rdp(tr, args, kwargs, result):
    tr.count("preprocess.rdp_points_in", len(args[0].points))
    tr.count("preprocess.rdp_points_out", len(result.points))


def _stroke_feature(key):
    def hook(tr, args, kwargs, result):
        tr.count(key + "_calls")
        tr.distinct[key].add(id(args[1]))
    return hook


# (defining module, function or Class.method, counting hook)
TARGETS = (
    ("cli", "main", None),
    ("autodiff", "Tensor.backward", _on_backward),
    ("recurrent", "run_lstm", None),
    ("recurrent", "lstm_step", None),
    ("mixture", "transform_params", None),
    ("mixture", "mixture_nll", None),
    ("mixture", "apply_temperature", None),
    ("mixture", "sample_point", None),
    ("vae", "train", None),
    ("vae", "loss_and_grads", None),
    ("vae", "total_loss", None),
    ("vae", "encode", None),
    ("vae", "decode_teacher_forced", None),
    ("vae", "encoder_feature", None),
    ("vae", "decode_sample", None),
    ("vae", "reconstruct_sketch", None),
    ("offsets", "make_stroke_batches", _on_batches),
    ("offsets", "augment_scale", None),
    ("offsets", "to_offsets", None),
    ("optim", "adam_update", _on_adam),
    ("optim", "clip_gradients", None),
    ("segmentation", "cross_validate", None),
    ("segmentation", "train_segmenter", _on_train_segmenter),
    ("segmentation", "predict_labels", None),
    ("segmentation", "seg_forward", None),
    ("segmentation", "extract_feature", _stroke_feature("segmentation.extract_feature")),
    ("idm", "segmentation_feature", _stroke_feature("idm.segmentation_feature")),
    ("preprocess", "preprocess_sketch", None),
    ("preprocess", "normalize_sketch", None),
    ("preprocess", "resample_stroke", None),
    ("preprocess", "rdp_simplify", _on_rdp),
    ("preprocess", "remove_tiny_strokes", None),
    ("sketch", "parse_quickdraw", None),
    ("sketch", "parse_annotated", None),
    ("sketch", "write_sketches", None),
    ("checkpoint", "save_checkpoint", None),
    ("checkpoint", "load_checkpoint", None),
    ("manifest", "sha256_file", None),
    ("manifest", "write_manifest", None),
    ("svg", "render_grid", None),
    ("svg", "render_sketch", None),
)


class Tracer:
    """Spans and counters of one benchmark run."""

    def __init__(self):
        self.spans = []            # (name, start, end, parent, op); None while open
        self.counts = defaultdict(lambda: defaultdict(int))   # op -> key -> n
        self.distinct = defaultdict(set)                       # per current op
        self.op = None
        self._stack = []
        self._patches = []

    # ---- recording ----

    def begin_op(self, op) -> None:
        self.op = op
        self.distinct = defaultdict(set)

    def end_op(self) -> None:
        for key, ids in self.distinct.items():
            self.counts[self.op][key + "_distinct"] = len(ids)
        self.op = None

    def count(self, key: str, n: int = 1) -> None:
        if self.op is not None:
            self.counts[self.op][key] += n

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float, end: float) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, start, end, parent, self.op)

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, start, time.perf_counter())

    def _wrap(self, name: str, fn, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, name, start, time.perf_counter())
            if hook is not None:
                cidx = tracer._open(COUNT_SPAN)
                cstart = time.perf_counter()
                hook(tracer, args, kwargs, result)
                tracer._close(cidx, COUNT_SPAN, cstart, time.perf_counter())
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # ---- installing ----

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "strokeseg" or n.startswith("strokeseg."))]
        for module_name, qualname, hook in TARGETS:
            owner = sys.modules[f"strokeseg.{module_name}"]
            name = f"{module_name}.{qualname.split('.')[-1]}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original, hook))
                continue
            original = getattr(owner, qualname)
            wrapper = self._wrap(name, original, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # ---- analysis ----

    def per_op(self) -> dict:
        """op -> {"self": {layer: s}, "fn_total": {name: s}, "fn_calls":
        {name: n}, "counts": {...}, "wall": s}.

        `fn_total` is a function's inclusive time with the tracer's own
        counting time taken out.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        count_inside = [0.0] * len(spans)
        for i in range(len(spans) - 1, -1, -1):      # children come after parents
            name, start, end, parent, _ = spans[i]
            if parent >= 0:
                child[parent] += end - start
                count_inside[parent] += count_inside[i] + (
                    end - start if name == COUNT_SPAN else 0.0)
        out = {}
        for i, (name, start, end, parent, op) in enumerate(spans):
            if op is None:
                continue
            rec = out.setdefault(op, {"self": defaultdict(float),
                                      "fn_total": defaultdict(float),
                                      "fn_calls": defaultdict(int),
                                      "wall": 0.0})
            dur = end - start
            if name == COUNT_SPAN:
                continue
            layer = name.split(".")[0]
            rec["self"][layer] += dur - child[i]
            rec["fn_total"][name] += dur - count_inside[i]
            rec["fn_calls"][name] += 1
            if parent < 0:
                rec["wall"] += dur - count_inside[i]
        for op, rec in out.items():
            rec["counts"] = dict(self.counts.get(op, {}))
        return out

    def span_records(self) -> list:
        """Spans as JSON-ready lists, times relative to the first span."""
        if not self.spans:
            return []
        t0 = min(s[1] for s in self.spans)
        return [[name, round(start - t0, 7), round(end - t0, 7), parent, op]
                for name, start, end, parent, op in self.spans]


def layer_metrics(per_op: dict) -> dict:
    """The per-layer metrics, each the median over traced operations."""
    rows = []
    for rec in per_op.values():
        fn, calls, c = rec["fn_total"], rec["fn_calls"], rec["counts"]

        def ratio(num, den):
            return num / den if den else 0.0

        row = {f"{layer}.self_s": rec["self"].get(layer, 0.0) for layer in LAYERS}
        row.update({
            "autodiff.backward_s": fn.get("autodiff.backward", 0.0),
            "autodiff.tape_nodes_per_step": ratio(c.get("autodiff.tape_nodes", 0),
                                                  c.get("autodiff.backward_calls", 0)),
            "recurrent.run_lstm_s": fn.get("recurrent.run_lstm", 0.0),
            "recurrent.lstm_step_s": fn.get("recurrent.lstm_step", 0.0),
            "recurrent.lstm_step_calls": calls.get("recurrent.lstm_step", 0),
            "vae.loss_and_grads_s": fn.get("vae.loss_and_grads", 0.0),
            "vae.total_loss_s": fn.get("vae.total_loss", 0.0),
            "vae.decode_teacher_forced_s": fn.get("vae.decode_teacher_forced", 0.0),
            "vae.encoder_feature_s": fn.get("vae.encoder_feature", 0.0),
            "vae.encoder_feature_per_stroke": ratio(
                c.get("segmentation.extract_feature_calls", 0),
                c.get("segmentation.extract_feature_distinct", 0)),
            "vae.decode_sample_s": fn.get("vae.decode_sample", 0.0),
            "mixture.transform_params_s": fn.get("mixture.transform_params", 0.0),
            "mixture.mixture_nll_s": fn.get("mixture.mixture_nll", 0.0),
            "mixture.sample_point_calls": calls.get("mixture.sample_point", 0),
            "offsets.make_stroke_batches_s": fn.get("offsets.make_stroke_batches", 0.0),
            "offsets.pad_efficiency": ratio(c.get("offsets.real_steps", 0),
                                            c.get("offsets.padded_steps", 0)),
            "optim.adam_update_s": fn.get("optim.adam_update", 0.0),
            "optim.clip_gradients_s": fn.get("optim.clip_gradients", 0.0),
            "optim.adam_updates": c.get("optim.adam_updates", 0),
            "optim.params_per_update": ratio(c.get("optim.adam_params", 0),
                                             c.get("optim.adam_updates", 0)),
            "optim.bytes_per_update": ratio(c.get("optim.adam_bytes", 0),
                                            c.get("optim.adam_updates", 0)),
            "segmentation.train_segmenter_s": fn.get("segmentation.train_segmenter", 0.0),
            "segmentation.predict_labels_s": fn.get("segmentation.predict_labels", 0.0),
            "segmentation.epochs_run": c.get("segmentation.epochs_run", 0),
            "idm.segmentation_feature_s": fn.get("idm.segmentation_feature", 0.0),
            "idm.features_per_stroke": ratio(
                c.get("idm.segmentation_feature_calls", 0),
                c.get("idm.segmentation_feature_distinct", 0)),
            "preprocess.resample_s": fn.get("preprocess.resample_stroke", 0.0),
            "preprocess.rdp_s": fn.get("preprocess.rdp_simplify", 0.0),
            "preprocess.points_kept_ratio": ratio(c.get("preprocess.rdp_points_out", 0),
                                                  c.get("preprocess.rdp_points_in", 0)),
            "sketch.parse_s": fn.get("sketch.parse_quickdraw", 0.0)
            + fn.get("sketch.parse_annotated", 0.0),
            "checkpoint.save_s": fn.get("checkpoint.save_checkpoint", 0.0),
            "checkpoint.load_s": fn.get("checkpoint.load_checkpoint", 0.0),
            "manifest.checksum_s": fn.get("manifest.sha256_file", 0.0),
            "svg.render_s": fn.get("svg.render_grid", 0.0) + fn.get("svg.render_sketch", 0.0),
        })
        rows.append(row)
    if not rows:
        return {}
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}
