"""One run of one workload, in its own process.

``run.py`` starts this script with the BLAS thread count pinned in its
environment: once per set-up sample (``--setup-only --spawned-at T``,
which prints the set-up seconds) and once for the measured run, which
prints one JSON object as its last line.

    python3 perfbench/worker.py --workload quadrant --seed 1 --seconds 10 --trace 0
    python3 perfbench/worker.py --write-reference   # rewrite reference.json

The clock starts before numpy and pinset are imported, so set-up time
includes the imports.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from clock import Clock  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="quadrant, pixel-s, pixel-l or lab")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, help="the parent's time.monotonic() at spawn")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")

    clock = Clock()
    with clock.running():
        import harness  # noqa: PLC0415 - timed as part of set-up

        clock.use_numpy(harness.np)

        if args.write_reference:
            harness.write_reference()
            return 0
        os.makedirs(harness.OUT_DIR, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=harness.OUT_DIR)
        try:
            if args.setup_only:
                harness.WORKLOADS[args.workload].setup(args.seed, workdir)
                result = {"setup_s": harness.setup_seconds(clock, args.spawned_at)}
            else:
                result = harness.measured_run(
                    clock, args.workload, args.seed, args.seconds, bool(args.trace), workdir
                )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
