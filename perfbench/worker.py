"""One workload process: inputs, timed set-up, closed-loop ops, checks, metrics.

Started by run.py with the BLAS thread counts already pinned in its
environment and ``src`` on PYTHONPATH. Writes one JSON result file.

    python3 perfbench/worker.py --workload toy-decode --seed 1 --seconds 15 \
        --trace 0 --mode run --out result.json
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

import spans as tracing
import workloads
from workloads import Op

clock = time.perf_counter
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Ops per phase of a traced run: a fixed count, so that span counts repeat
# exactly between runs; the untraced phase runs the same ops for the
# overhead ratio.
TRACE_OPS = {"toy-decode": 12, "paper-decode-b16": 12, "toy-train": 2, "toy-eval": 2}


def run_op(wl, st, i, fault) -> Op:
    t0 = clock()
    try:
        return wl.run_op(st, i, fault)
    except Exception as exc:  # a failed op is counted, never fatal to the run
        op = Op(wall_s=clock() - t0)
        op.fail(f"{type(exc).__name__}: {exc}")
        return op


def closed_loop(wl, st, seconds: float, min_ops: int, fault) -> list[Op]:
    """A warm-up op (checked, not timed), then ops for `seconds` and at least `min_ops`."""
    ops = [run_op(wl, st, 0, fault)]
    deadline = clock() + seconds
    while clock() < deadline or len(ops) <= min_ops:
        ops.append(run_op(wl, st, len(ops), fault))
    return ops


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def end_to_end(name: str, ops: list[Op]) -> tuple[dict, dict]:
    """Gated metrics (name -> (value, unit)) and informational extras.

    `ops[0]` is the warm-up: it counts in `ok_ratio`, not in the timings.
    The gated time is a ratio of sums over the whole run, not a median of
    per-op samples: the host's speed shifts between levels that last
    seconds, and a median jumps from one level to the next as their mix
    changes between runs, while a sum moves only in proportion to it.
    """
    timed = ops[1:]
    rtf = [wall / audio for op in timed for wall, audio in op.samples]
    failed = sum(not op.ok for op in ops)
    who = resource.RUSAGE_CHILDREN if name == "toy-eval" else resource.RUSAGE_SELF
    metrics = {
        "rtf_mean": (sum(op.wall_s for op in timed) / sum(op.audio_s for op in timed), "s/s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MiB"),
        "ok_ratio": ((len(ops) - failed) / len(ops), "ratio"),
    }
    extra = {
        "rtf_p50": (percentile(rtf, 50), "s/s"),
        "rtf_p75": (percentile(rtf, 75), "s/s"),
        "rtf_samples": (len(rtf), "count"),
        "failed_ratio": (failed / len(ops), "ratio"),
    }
    if "decode" in name:
        extra["decode_rtf_p50"] = extra["rtf_p50"]
        extra["decode_rtf_p75"] = extra["rtf_p75"]
        extra["encode_ms_per_audio_s"] = (
            1000.0 * sum(op.encode_s for op in timed) / sum(op.audio_s for op in timed), "ms/s")
    elif name == "toy-train":
        steps = sum(op.info.get("steps", 0) for op in timed)
        extra["train_steps_per_s"] = (steps / sum(op.wall_s for op in timed), "1/s")
    else:
        extra["eval_rtf_p50"] = extra["rtf_p50"]
    return metrics, extra


def gru_step_counts(model_cfg) -> dict:
    """Computed (not measured) per-step GRU cost from parameter shapes and dtype."""
    hidden = model_cfg.gru_state
    weights = 6 * hidden * hidden // model_cfg.gru_blocks  # Uz Ur Uh Rz Rr Rh; input dim = H
    return {
        "neural.GRUCell.step.weight_bytes": (
            (weights + 3 * hidden) * np.dtype(model_cfg.dtype).itemsize, "bytes"),
        "neural.GRUCell.step.flops": (2 * weights, "flop"),
    }


def traced(name, wl, st, fault) -> tuple[list[Op], dict, dict]:
    """A warm-up op, then `count` pairs of the same op untraced and traced.

    Pairs alternate which side runs first, so drift does not bias the
    overhead ratio. Shims are installed only around the traced ops, and
    only spans inside an op's timed window count (not its output checks).
    """
    count = 1 if st["smoke"] else TRACE_OPS[name]
    ops = [run_op(wl, st, 0, fault)]
    plain, shimmed, bindings = [], [], []
    tracer = tracing.Tracer()
    for i in range(count):
        for shim in ((False, True) if i % 2 == 0 else (True, False)):
            if not shim:
                plain.append(run_op(wl, st, i, fault))
                continue
            tracer.op_id = i
            tracer.install()
            st["traced"] = True
            try:
                shimmed.append(run_op(wl, st, i, fault))
            finally:
                bindings += tracer.bindings()
                tracer.restore()
                st["traced"] = False
    for a, b in zip(plain, shimmed):
        if "sha256" in a.info and a.info["sha256"] != b.info.get("sha256"):
            b.fail("traced decode differs from the untraced decode of the same op")
    spans_all, counters = tracer.spans, dict(tracer.counters)
    for path in st.get("child_spans", []):  # toy-eval: each child process records its own
        with open(path) as fh:
            child = json.load(fh)
        spans_all += tracing.rebase(child["spans"], len(spans_all))
        for key, value in child["counters"].items():
            counters[key] += value
    traced_wall = sum(op.wall_s for op in shimmed)
    metrics = tracing.summarize(spans_all, counters, traced_wall, [op.window for op in shimmed])
    metrics["trace_overhead_ratio"] = (traced_wall / sum(op.wall_s for op in plain), "ratio")
    metrics.update(gru_step_counts(st["cfg"].model))
    info = {"shimmed_bindings": len(bindings) // count, "unrestored": tracing.unrestored(bindings),
            "spans": len(spans_all)}
    return ops + plain + shimmed, metrics, info


def blas_threads() -> dict:
    """Thread count reported by each loaded OpenBLAS, via its C API."""
    out = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def provenance(seed: int) -> dict:
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "lvrc", "*.py"))):
        with open(path, "rb") as fh:
            src.update(os.path.basename(path).encode() + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "seed": seed,
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("openblas configuration") or blas.get("version"),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--out", required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--fault", choices=workloads.FAULTS)
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]()
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".perfbench_out"))
    try:
        data = wl.make_inputs(args.seed, args.smoke, workdir)
        t0 = clock()
        st = wl.setup(data, workdir)
        setup_s = clock() - t0
        st["smoke"] = args.smoke
        lvrc_file = os.path.realpath(st["lvrc"].__file__)
        if not lvrc_file.startswith(os.path.join(os.path.realpath(ROOT), "src") + os.sep):
            raise SystemExit(f"lvrc was imported from {lvrc_file}, not from this checkout")
        result = {"setup_s": setup_s}
        if args.mode == "run":
            extra, trace_info = {}, {}
            if args.trace:
                ops, metrics, trace_info = traced(args.workload, wl, st, args.fault)
            else:
                min_ops = 1 if args.smoke else wl.closed_loop_min_ops
                ops = closed_loop(wl, st, args.seconds, min_ops, args.fault)
            wl.finish(st, ops, args.fault)
            if not args.trace:
                metrics, extra = end_to_end(args.workload, ops)
            result.update({
                "attempted": len(ops),
                "failed": sum(not op.ok for op in ops),
                "errors": sorted({op.error for op in ops if not op.ok}),
                "op_wall_s": [op.wall_s for op in ops],
                "metrics": metrics,
                "extra": extra,
                "trace": trace_info,
                "sha256": [op.info["sha256"] for op in ops if "sha256" in op.info],
                "provenance": provenance(args.seed),
            })
        with open(args.out, "w") as fh:
            json.dump(result, fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
