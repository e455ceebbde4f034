"""End-to-end benchmark of the reproduction: one workload per invocation.

    python3 perfbench/run.py --workload paper-figs --seed 1 --seconds 30 --trace 0

Run from the repository root.  Workloads: ``paper-figs``,
``campaign-faults``, ``scale-compiled``, ``serve-closedloop`` (see
``perfbench/README.md``).  The workload runs in a fresh child process
with an empty result-cache directory; a few more children only set up,
so ``setup_s`` is a median.  With ``--trace 0`` the last line of
standard output is a JSON object carrying the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run, and the
spans are written to ``perfbench/out/``.  Lines above it are a
human-readable report: every metric with its unit, the exact-count
fingerprint, and host-noise context.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-figs", "campaign-faults", "scale-compiled", "serve-closedloop")

#: Children that only set up, besides the measured one (``setup_s`` is
#: the median over all of them).
SETUP_PROBES = 5

#: Everything, children included, must end within this many seconds.
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env(cache_dir: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # an empty, private disk tier: shards left in ~/.cache/repro by other
    # tools cannot turn a cold measurement warm
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env.pop("REPRO_NO_DISK_CACHE", None)
    env.pop("REPRO_NUMBA", None)
    # one BLAS thread: a host with few cores gets no hidden thread pool
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: argparse.Namespace, work: Path, tag: str, deadline: float,
              setup_only: bool = False) -> dict:
    """Run ``worker.py`` once in a fresh process; return its JSON result."""
    child_dir = work / tag
    cache_dir = child_dir / "cache"
    cache_dir.mkdir(parents=True)
    out = child_dir / "result.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(child_dir), "--out", str(out),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = _child_env(cache_dir)
    env["PERFBENCH_SPAWN"] = repr(time.monotonic())
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{tag}: child exceeded the time limit") from None
    if proc.returncode != 0 or not out.exists():
        raise BenchError(f"{tag}: child exited with {proc.returncode}\n{stdout}{stderr}")
    with open(out) as fh:
        return json.load(fh)


def report(args: argparse.Namespace, result: dict, metrics: dict) -> None:
    """The human-readable lines printed above the result line."""
    info = result["info"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}")
    print(f"  attempted={result['attempted']} failed={result['failed']}")
    for note in result["notes"]:
        print(f"  FAILED: {note}")
    print(f"fingerprint: {json.dumps(result['fingerprint'], sort_keys=True)}")
    print(f"info: {json.dumps(info, sort_keys=True)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    # the build step: byte-compile once, so set-up never times compilation
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                   check=True, stdout=subprocess.DEVNULL)
    out_dir = HERE / "out"
    work = out_dir / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        probes = [
            run_child(args, work, f"setup-{i}", deadline, setup_only=True)
            for i in range(SETUP_PROBES)
        ]
        result = run_child(args, work, "measure", deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    from metrics import as_output

    # set-up is CPU-bound (imports, preload): report it at the reference
    # host speed measured right after it, like every batch time
    samples = probes + [result]
    result["info"]["setup_s_samples"] = [p["setup_s"] for p in samples]
    result["info"]["setup_host_speed"] = [p["setup_speed"] for p in samples]
    setup_s = float(np.median([p["setup_s"] * p["setup_speed"] for p in samples]))
    if args.trace:
        spans = result.pop("spans")
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end", "count"],
                       "spans": spans}, fh)
        result["info"]["trace_file"] = str(trace_path.relative_to(ROOT))
        metrics = as_output(result["layers"])
    else:
        values = {"setup_s": setup_s, **result["metrics"]}
        metrics = as_output(values)
    report(args, result, metrics)
    failed = int(result["failed"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": int(result["attempted"]),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
