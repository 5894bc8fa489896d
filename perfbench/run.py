"""lvrc benchmark: one seeded workload, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload paper-decode-b16 --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; it measures ``src/lvrc`` of
that checkout. Each workload runs in fresh worker processes with OpenBLAS,
OpenMP and MKL pinned to one thread. With ``--trace 0`` set-up is measured
in several processes and its median reported; with ``--trace 1`` the
per-layer span metrics are reported instead. The last line of standard
output is the JSON result; perfbench/README.md documents every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("toy-decode", "paper-decode-b16", "toy-train", "toy-eval")
SETUP_REPEATS = 2  # set-up-only processes; with the run's own set-up, a median of 3
DEADLINE_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def worker(args, mode: str, out_path: str, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode, "--out", out_path]
    if args.smoke:
        cmd.append("--smoke")
    if args.fault:
        cmd += ["--fault", args.fault]
    if os.path.exists(out_path):
        os.remove(out_path)
    # own session, so a timeout also stops the `lvrc eval` processes it started
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=max(deadline - time.monotonic(), 5.0))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0 or not os.path.exists(out_path):
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}:\n{stderr[-2000:]}")
    with open(out_path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes and no extra set-up runs (self-tests)")
    ap.add_argument("--fault", help="inject one fault that must be counted as a failed op "
                    "(self-tests; see workloads.FAULTS)")
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "lvrc", "__init__.py")):
        print(f"error: no lvrc sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = os.path.join(out_dir, f"{tag}-worker.json")

    try:
        setups = []
        if not args.trace:
            for _ in range(0 if args.smoke else SETUP_REPEATS):
                setups.append(worker(args, "setup", scratch, env, deadline)["setup_s"])
        res = worker(args, "run", scratch, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if os.path.exists(scratch):
            os.remove(scratch)
    setups.append(res["setup_s"])

    metrics = dict(res["metrics"])
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setups), "s")
    res["setup_samples_s"] = setups
    with open(os.path.join(out_dir, f"{tag}.json"), "w") as fh:
        json.dump(res, fh, indent=1)

    prov = res["provenance"]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# blas_threads={prov['blas_threads']} nproc={prov['nproc']} cpu={prov['cpu_model']!r}")
    print(f"# python={prov['python']} numpy={prov['numpy']} scipy={prov['scipy']} "
          f"openblas={prov['openblas']!r} commit={prov['git_commit']} src={prov['src_sha256'][:16]}")
    print(f"# attempted={res['attempted']} failed={res['failed']} setup_samples_s="
          + ",".join(f"{s:.3f}" for s in setups))
    for err in res["errors"]:
        print(f"# failed op: {err}")
    for name, (value, unit) in sorted(res["extra"].items()):
        print(f"# {name} = {value:.6g} {unit}")
    for name, value in sorted(res["trace"].items()):
        print(f"# trace {name}: {value}")
    if res["sha256"]:
        joined = "".join(res["sha256"]).encode()
        print(f"# decoded waveforms: {len(res['sha256'])}, sha256 of their sha256s: "
              f"{hashlib.sha256(joined).hexdigest()[:16]} (information only)")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} = {value:.6g} {unit}")
    correct = res["failed"] == 0 and not res["trace"].get("unrestored")
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
