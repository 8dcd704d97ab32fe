"""pinset benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload quadrant --seed 1 --seconds 10 --trace 0

Run from the root of a pinset checkout; pinset is imported from its
``src`` directory. Workloads: quadrant, pixel-s, pixel-l, lab (see
perfbench/README.md). Every child process gets OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS, MKL_NUM_THREADS and BLIS_NUM_THREADS = 1,
PYTHONHASHSEED = 0 and no PINSET_THREADS.

With ``--trace 0`` the run starts the set-up alone in SETUP_SAMPLES fresh
processes (import, input generation and parsing, model build; the median
of their scaled times is ``setup_s``), then one process that runs the
timed work untraced and checks its outputs. With ``--trace 1`` the measured process records
per-layer spans instead. The report lines name each metric with its unit
and sample count; the last line is the JSON result. The full result,
with the environment, is also written to perfbench/out/.

Exit status: 0 when every correctness check passed, 1 when one failed
(the result is still printed), 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("quadrant", "pixel-s", "pixel-l", "lab")
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 30
RUN_TIMEOUT_S = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


class RunError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("PINSET_THREADS", None)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def _communicate(proc: subprocess.Popen, timeout: float) -> str:
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError(f"{' '.join(proc.args)} did not finish within {timeout:.0f} s")
    return stdout


def setup_seconds(workload: str, seed: int, env: dict) -> list[float]:
    """Set-up time of each fresh process, from spawn to the end of set-up."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        cmd = [
            sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
            "--setup-only", "--spawned-at", repr(time.monotonic()),
        ]
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
        stdout = _communicate(proc, SETUP_TIMEOUT_S)
        if proc.returncode != 0 or not stdout.strip():
            raise RunError(f"set-up of {workload} failed (exit {proc.returncode})")
        samples.append(json.loads(stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def measured(workload: str, seed: int, seconds: int, trace: int, env: dict) -> dict:
    cmd = [
        sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    stdout = _communicate(proc, RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RunError(f"measured run of {workload} failed (exit {proc.returncode})")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RunError(f"measured run of {workload} printed nothing")
    return json.loads(lines[-1])


def source_identity() -> dict:
    """Commit when the checkout is a git work tree, and a digest of the
    pinset sources either way."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "pinset")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(f.read())
    commit = None
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        print("error: --seed must fit in an unsigned 64-bit integer", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "pinset", "__init__.py")):
        print(f"error: no pinset sources under {SRC}; run from a pinset checkout", file=sys.stderr)
        return 2

    env = child_env()
    try:
        setup = [] if args.trace else setup_seconds(args.workload, args.seed, env)
        result = measured(args.workload, args.seed, args.seconds, args.trace, env)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics = result["metrics"]
    if setup:
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}, **metrics}
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    if setup:
        print(f"  setup_s = {statistics.median(setup):.6g} s (median, n={len(setup)})")
    for name, value, unit, n in result["report"]:
        print(f"  {name} = {value:.6g} {unit} (n={n})")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, passed, detail in result["checks"]:
        print(f"  check {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_samples_s": setup,
        **source_identity(),
        **result,
        "metrics": metrics,
    }
    env_line = result["environment"]
    print(f"  environment {json.dumps(env_line, sort_keys=True)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"BENCH_{args.workload}_trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    print(f"  result file {os.path.relpath(path, ROOT)}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
