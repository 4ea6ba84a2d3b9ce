"""strokeseg benchmark: one workload, one process, a closed loop of one client.

    python3 perfbench/run.py --workload {vae_train,seg_cv,prep_recon} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout. The run
  1. sets up three times (perfbench/prepare.py in a child process: input
     generation from --seed, preprocessing, encoder training) and reports
     the median as setup_s;
  2. repeats the workload's operation through strokeseg.cli.main until
     --seconds have passed, checking every output; the first operation is
     an untimed warm-up, and at least two more are timed;
  3. prints a report, then one JSON line: the end-to-end metrics with
     --trace 0, the per-layer metrics with --trace 1.

With --trace 1 the timed operations alternate untraced and traced; the per-layer
numbers are medians over the traced ones, and trace.overhead_s is the
traced minus the untraced median operation time. Spans and a per-layer
summary go to .perfbench/traces/, the full report to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 150
MIN_OPS = 3   # the warm-up and at least two more
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; must run before
    numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    threads = nproc
    for var in BLAS_THREAD_VARS:
        try:
            threads = min(threads, max(int(os.environ[var]), 1))
        except (KeyError, ValueError):
            pass
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def machine_facts(blas_threads: int) -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2 ** 30, 2),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def summarize(samples: list) -> dict:
    """Median, the highest of p90/p95/p99/p99.9 with at least ten samples
    beyond it (none below 20 samples), and the sample count."""
    xs = sorted(samples)
    out = {"median": statistics.median(xs), "n": len(xs)}
    for p in (99.9, 99.0, 95.0, 90.0):
        if len(xs) * (1.0 - p / 100.0) >= 10:
            out[f"p{p:g}"] = xs[min(len(xs) - 1, int(len(xs) * p / 100.0))]
            break
    return out


def _fmt_summary(name: str, s: dict, unit: str) -> str:
    tail = [f"{k} {v:.4f}" for k, v in s.items() if k.startswith("p")]
    tail = ", ".join(tail) if tail else "no percentile with >= 10 samples beyond"
    return f"  {name}: median {s['median']:.4f} {unit} (n={s['n']}; {tail})"


def run_setups(seed: int, work: Path) -> tuple:
    """Set up SETUP_REPEATS times from the same seed; returns each set-up's
    (start, end) and the directory of the first. Every set-up must write
    the same inputs."""
    spans = []
    for i in range(SETUP_REPEATS):
        out = work / f"setup-{i}"
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "prepare.py"), "--seed", str(seed),
             "--out", str(out), "--src", str(SRC)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=SETUP_TIMEOUT_S)
        spans.append((start, time.perf_counter()))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed ({proc.returncode}):\n{proc.stdout}")
    import inputs
    for name in ("raw.ndjson", "chairs.ndjson", "pre/preprocessed.ndjson"):
        if len({inputs.sha256(work / f"setup-{i}" / name) for i in range(SETUP_REPEATS)}) != 1:
            raise RuntimeError(f"set-up wrote different {name} from the same seed")
    return spans, work / "setup-0"


def traffic_shape(setup: Path, workload: str) -> dict:
    """Input checksums and the shape of the traffic the program sees."""
    import numpy as np

    import inputs
    import sizes
    from strokeseg.offsets import make_stroke_batches
    from strokeseg.sketch import parse_annotated, parse_quickdraw

    files = {"raw": setup / "raw.ndjson", "chairs": setup / "chairs.ndjson",
             "preprocessed": setup / "pre" / "preprocessed.ndjson"}
    shape = {"checksums": {k: inputs.sha256(p) for k, p in files.items()}}
    corpora = {"raw": parse_quickdraw(files["raw"]),
               "preprocessed": parse_quickdraw(files["preprocessed"]),
               "chairs": parse_annotated(files["chairs"])}
    for key, sketches in corpora.items():
        lengths = np.array([len(s.points) for sk in sketches for s in sk.strokes])
        shape[key] = {
            "sketches": len(sketches),
            "strokes_per_sketch": round(float(np.mean([len(sk) for sk in sketches])), 3),
            "points_per_stroke": {"mean": round(float(lengths.mean()), 2),
                                  "p50": float(np.percentile(lengths, 50)),
                                  "p90": float(np.percentile(lengths, 90)),
                                  "max": int(lengths.max())},
        }
    if workload == "vae_train":
        batches = make_stroke_batches(corpora["preprocessed"], sizes.VAE_MID["batch_size"])
        real = sum(int(b.mask.sum()) for b in batches)
        padded = sum(b.mask.size for b in batches)
        shape["preprocessed"]["pad_efficiency"] = round(real / padded, 4)
        shape["preprocessed"]["padded_lengths"] = [b.mask.shape[1] for b in batches]
    return shape


def measure(wl, seconds: float, work: Path, tracer) -> list:
    """Closed loop: run operations back to back until `seconds` have passed.

    The first operation is a warm-up: its outputs are checked, its time is
    not counted (it runs 10-30 % slower than the rest). With a tracer, the
    even-numbered operations after it run traced."""
    from workloads import CommandFailed, OpResult

    results = []
    deadline = time.perf_counter() + seconds
    k = 0
    while k < MIN_OPS or time.perf_counter() < deadline:
        out = work / f"op-{k:04d}"
        traced = tracer is not None and k > 0 and k % 2 == 0
        if traced:
            tracer.install()
            tracer.begin_op(k)
        start = time.perf_counter()
        try:
            if traced:
                with tracer.span("bench.op"):
                    res = wl.run(out)
            else:
                res = wl.run(out)
        except CommandFailed as e:
            res = OpResult((start, time.perf_counter()), 0, (start, start), failures=[str(e)],
                           ran=False)
        except Exception as e:  # an operation that crashes counts as failed
            traceback.print_exc(file=sys.stderr)
            res = OpResult((start, time.perf_counter()), 0, (start, start),
                           failures=[f"crashed: {e!r}"], ran=False)
        finally:
            if traced:
                tracer.end_op()
                tracer.uninstall()
        res.stats["traced"] = traced
        res.stats["warmup"] = k == 0
        results.append(res)
        shutil.rmtree(out, ignore_errors=True)
        k += 1
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description="strokeseg benchmark")
    parser.add_argument("--workload", required=True,
                        choices=["vae_train", "seg_cv", "prep_recon"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "strokeseg" / "cli.py").is_file():
        print(f"error: no strokeseg sources under {SRC}", file=sys.stderr)
        return 2
    blas_threads = cap_blas_threads()
    sys.path.insert(0, str(SRC))

    import strokeseg.cli as cli
    from spans import Tracer
    from workloads import WORKLOADS

    tracer = Tracer() if args.trace else None
    work = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_spans, setup = run_setups(args.seed, work)
        shape = traffic_shape(setup, args.workload)
        wl = WORKLOADS[args.workload](setup, args.seed, cli)
        results = measure(wl, args.seconds, work, tracer)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not any(r.ran for r in results if not (r.stats["traced"] or r.stats["warmup"])):
        print("error: no operation ran to the end: "
              + "; ".join(f for r in results for f in r.failures), file=sys.stderr)
        return 1
    report = build_report(args, wl, results, setup_spans, shape, peak_rss_mb,
                          machine_facts(blas_threads), tracer)
    write_outputs(args, report, tracer)
    print_report(report)
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": report["metrics"]}))
    return 0


def build_report(args, wl, results, setup_spans, shape, peak_rss_mb, machine,
                 tracer) -> dict:
    """Everything the run measured; times are wall-clock seconds."""
    from spans import layer_metrics

    def secs(span):
        return span[1] - span[0]

    # Timings count every untraced operation after the warm-up whose
    # commands all ran, checks passed or not; `failed` and `correct` carry
    # the checks of every operation.
    ran = [r for r in results if r.ran and not (r.stats["traced"] or r.stats["warmup"])]
    ok = [r for r in ran if not r.failures]
    failed = sum(1 for r in results if r.failures)
    op_s = summarize([secs(r.span) for r in ran])
    rates = summarize([r.items / secs(r.item_span) for r in ran])
    setup_s = summarize([secs(s) for s in setup_spans])
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "traffic": shape,
        "attempted": len(results), "failed": failed,
        "failures": [f for r in results for f in r.failures],
        "setup_s": setup_s, "op_s": op_s, "items_per_s": rates,
        "item_unit": wl.item_unit, "peak_rss_mb": peak_rss_mb,
        "ops": [{"seconds": secs(r.span), "items": r.items, "failures": r.failures,
                 "stages_s": {k: secs(v) for k, v in r.stages.items()}, **r.stats}
                for r in results],
    }
    named = {"setup_s": setup_s["median"], "peak_rss_mb": peak_rss_mb,
             "failed_frac": failed / len(results)}
    if ok:
        def stat(key):
            return statistics.median(r.stats[key] for r in ok)
        if args.workload == "vae_train":
            named.update(train_strokes_per_s=rates["median"],
                         train_loss_end=stat("train_loss_end"))
        elif args.workload == "seg_cv":
            named.update(seg_cv_s=op_s["median"], seg_accuracy=stat("seg_accuracy"))
        else:
            named.update(preprocess_sketches_per_s=rates["median"],
                         recon_points_per_s=statistics.median(
                             r.stats["decoded_points"] / secs(r.stages["reconstruct"])
                             for r in ok))
    report["named"] = named
    if args.trace:
        traced_ops = tracer.per_op()
        layer = layer_metrics(traced_ops)
        traced = [secs(r.span) for r in results if r.ran and r.stats["traced"]]
        overhead = statistics.median(traced) - op_s["median"] if traced else 0.0
        layer["trace.overhead_s"] = overhead
        layer["trace.overhead_frac"] = overhead / op_s["median"]
        report["layers"] = layer
        report["layer_share"] = layer_shares(traced_ops)
        report["seed_observations"] = seed_observations(
            args.workload, layer, statistics.median(rec["wall"] for rec in traced_ops.values()))
        report["metrics"] = {k: {"value": v, "unit": layer_unit(k)} for k, v in layer.items()}
    else:
        report["metrics"] = {
            "setup_s": {"value": setup_s["median"], "unit": "s"},
            "op_s": {"value": op_s["median"], "unit": "s"},
            "items_per_s": {"value": rates["median"], "unit": "items/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return report


def layer_shares(per_op: dict) -> dict:
    """Each layer's self time as a share of the traced operations' time."""
    total = sum(rec["wall"] for rec in per_op.values())
    sums = {}
    for rec in per_op.values():
        for layer, s in rec["self"].items():
            sums[layer] = sums.get(layer, 0.0) + s
    return {k: round(v / total, 4) for k, v in sorted(sums.items(), key=lambda kv: -kv[1])} \
        if total else {}


def seed_observations(workload: str, layer: dict, wall: float) -> dict:
    """Whether the profile taken before this benchmark existed still holds."""
    if workload == "seg_cv":
        fns = {k: v for k, v in layer.items() if k.endswith("_s") and not
               k.endswith(".self_s") and not k.startswith(("trace.", "segmentation.", "cli."))}
        leader = max(fns, key=fns.get)
        return {"claim": "optim.adam_update_s leads seg_cv",
                "adam_share_of_op": round(layer["optim.adam_update_s"] / wall, 4),
                "leader": leader, "holds": leader == "optim.adam_update_s"}
    if workload == "prep_recon":
        pre = {k: layer[k] for k in ("preprocess.rdp_s", "preprocess.resample_s")}
        rest = layer["preprocess.self_s"] - sum(pre.values())
        return {"claim": "preprocess.rdp_s leads preprocessing in prep_recon",
                "rdp_share_of_preprocess": round(
                    pre["preprocess.rdp_s"] / max(layer["preprocess.self_s"], 1e-12), 4),
                "holds": pre["preprocess.rdp_s"] > max(pre["preprocess.resample_s"], rest)}
    return {}


def layer_unit(name: str) -> str:
    """A per-layer metric's unit, read off its name as BENCHMARK.json lists it."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio", "pad_efficiency")):
        return "fraction"
    if name.endswith("bytes_per_update"):
        return "bytes"
    return "count"


def write_outputs(args, report: dict, tracer) -> None:
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{stem}.json").write_text(json.dumps(report, indent=1, default=float) + "\n")
    if tracer is not None:
        traces = OUT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        payload = {"fields": ["name", "start_s", "end_s", "parent", "op"],
                   "spans": tracer.span_records(), "layers": report["layers"],
                   "layer_share": report["layer_share"]}
        (traces / f"{stem}.json").write_text(json.dumps(payload) + "\n")


def print_report(r: dict) -> None:
    m = r["machine"]
    print(f"# strokeseg benchmark: workload {r['workload']}, seed {r['seed']}, "
          f"{r['seconds']:g} s, trace {r['trace']}")
    print(f"machine: nproc {m['nproc']}, RAM {m['ram_gb']} GB, BLAS {m['blas']} "
          f"({m['blas_threads']} threads), numpy {m['numpy']}, Python {m['python']}")
    t = r["traffic"]
    for key in ("raw", "preprocessed", "chairs"):
        print(f"input {key}: {json.dumps(t[key])} sha256 {t['checksums'][key][:16]}")
    print(_fmt_summary("setup_s", r["setup_s"], "s"))
    print(_fmt_summary("op_s", r["op_s"], "s"))
    print(_fmt_summary("items_per_s", r["items_per_s"], f"{r['item_unit']}/s"))
    for k, v in r["named"].items():
        print(f"  {k}: {v:.6g}")
    print(f"operations: {r['attempted']} attempted, {r['failed']} failed")
    for f in r["failures"]:
        print(f"  FAILED: {f}")
    if r["trace"]:
        print("layer self-time share of traced operations:")
        for k, v in r["layer_share"].items():
            print(f"  {k:13s} {v * 100:6.2f} %")
        print(f"seed observation: {json.dumps(r['seed_observations'])}")


if __name__ == "__main__":
    sys.exit(main())
