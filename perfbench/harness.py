"""Measurement, per-layer metrics and reports of one workload run.

``worker.py`` imports this module with its clock already running, so
that the import of numpy and pinset counts towards set-up time.
"""

from __future__ import annotations

import json
import os
import platform
import resource

import numpy as np

from pinset import kernels

import workloads
from clock import Clock
from tracer import Tracer
from workloads import WORKLOADS, Outcome, percentile, round_ms

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

# per-layer timings: (span name, "ms" inclusive, "self_ms" exclusive, or
# "s" inclusive); a verify suite "verify.run_<suite>" reports as
# "verify.<suite>"
LAYER_TIMES = [
    ("tensor.backward", "ms"),
    ("tensor.matmul", "self_ms"),
    ("tensor.batchnorm", "self_ms"),
    ("tensor.pair_aggregate", "self_ms"),
    ("tensor.set_softmax", "self_ms"),
    ("tensor.tile_rows", "self_ms"),
    ("tensor.finite_difference_gradient", "ms"),
    ("kernels.sum_product_forward", "ms"),
    ("kernels.sum_product_backward", "ms"),
    ("blocks.aggregate", "ms"),
    ("blocks.Mlp.forward", "self_ms"),
    ("blocks.broadcast_batched", "ms"),
    ("blocks.aggregate_order_n", "ms"),
    ("models.Model.forward", "ms"),
    ("train.sgd_step", "ms"),
    ("train.evaluate", "ms"),
    ("data.load_mnist_idx", "ms"),
    ("data.pixel_set_batch", "ms"),
    ("data.make_synthetic_task", "ms"),
    ("decomp.cp_decompose", "ms"),
    ("decomp.mdd_solve", "ms"),
    ("decomp.reconstruct_cp", "ms"),
    ("textio.read_tensor", "ms"),
    ("textio.write_tensor", "ms"),
] + [
    (f"verify.run_{suite}", "s")
    for suite in ("invariance", "mdd", "cp", "rankstab", "gradcheck", "collapse")
]


def metric_prefix(span: str) -> str:
    return span.replace("verify.run_", "verify.")


# computed operation counts: metric prefix -> span names summed
LAYER_COUNTS = {
    "tensor.matmul": ["tensor.matmul"],
    "tensor.pair_aggregate": ["tensor.pair_aggregate"],
    "kernels.sum_product": ["kernels.sum_product_forward", "kernels.sum_product_backward"],
}

UNITS = {"ms": "ms", "self_ms": "ms", "s": "s"}


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = []
    for span, kind in LAYER_TIMES:
        names.append((f"{metric_prefix(span)}.{kind}", UNITS[kind]))
        names.append((f"{metric_prefix(span)}.calls", "count"))
    for prefix in LAYER_COUNTS:
        names.append((f"{prefix}.gflop", "GFLOP"))
        names.append((f"{prefix}.gbytes", "GB"))
    names += [
        ("tensor.ops_per_step", "count"),
        ("train.step_ms_p50", "ms"),
        ("train.step_ms_p90", "ms"),
        ("decomp.rank_deficiency_errors", "count"),
        ("trace.step_overhead_pct", "%"),
        ("trace.query_overhead_pct", "%"),
    ]
    return names


def per_layer_values(tracer: Tracer, traced: Outcome, untraced: Outcome, training: bool) -> dict:
    values = {}
    for span, kind in LAYER_TIMES:
        prefix = metric_prefix(span)
        if kind == "self_ms":
            values[f"{prefix}.self_ms"] = tracer.self_ms(span)
        elif kind == "ms":
            values[f"{prefix}.ms"] = tracer.ms(span)
        else:
            values[f"{prefix}.s"] = tracer.ms(span) / 1e3
        values[f"{prefix}.calls"] = tracer.calls[span]
    for prefix, spans in LAYER_COUNTS.items():
        values[f"{prefix}.gflop"] = sum(tracer.flops[s] for s in spans) / 1e9
        values[f"{prefix}.gbytes"] = sum(tracer.bytes[s] for s in spans) / 1e9
    steps = traced.times("steps", scaled=False) if training else []
    values["tensor.ops_per_step"] = percentile(traced.ops_per_step, 50) if traced.ops_per_step else 0
    values["train.step_ms_p50"] = percentile(steps, 50) if steps else 0.0
    values["train.step_ms_p90"] = percentile(steps, 90) if steps else 0.0
    values["decomp.rank_deficiency_errors"] = tracer.error_count(
        "decomp.cp_decompose", "RankDeficiencyError"
    )
    for kind, ops in (("step", "steps"), ("query", "queries")):
        a = traced.times(ops)
        b = untraced.times(ops)
        values[f"trace.{kind}_overhead_pct"] = (
            100.0 * (percentile(a, 50) / percentile(b, 50) - 1.0) if a and b else 0.0
        )
    return values


# The JSON line carries medians only: p90s move by 7 to 12 % between
# identical runs on a shared 2-core box even after scaling, so they are
# printed in the report lines but not bounded. step_ms and query_ms are
# one pass over the workload's cases (round_ms): a training step and an
# eval chunk; on lab, every order-n shape and every solvable battery entry.
END_TO_END_UNITS = {
    "step_ms": "ms",
    "query_ms": "ms",
    "check_s": "s",
    "peak_rss_mb": "MB",
}


def end_to_end_values(wl, out: Outcome) -> dict:
    return {
        "step_ms": round_ms(out.times("steps"), out.step_tags, wl.step_cases),
        "query_ms": round_ms(out.times("queries"), out.query_tags, wl.query_cases),
        "check_s": percentile(out.times("jobs"), 50) / 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }


def sets_per_s(sets: int, times_ms: list) -> float:
    return sets * len(times_ms) / (sum(times_ms) / 1e3) if times_ms else float("nan")


def named_report(name: str, out: Outcome) -> list:
    """The workload's metrics under the names a pinset user knows them by,
    scaled and raw: [name, value, unit, sample count]."""
    wl = WORKLOADS[name]
    attempted = sum(out.attempted.values())
    failed = sum(out.failed.values())
    rows = []
    for suffix, scaled in (("", True), ("_raw", False)):
        steps, queries = out.times("steps", scaled), out.times("queries", scaled)
        job_s = percentile(out.times("jobs", scaled), 50) / 1e3
        n_step, n_query, n_job = len(steps), len(queries), len(out.jobs)
        if isinstance(wl, workloads.TrainingWorkload):
            rows += [
                [f"train_sets_per_s{suffix}", sets_per_s(workloads.BATCH, steps), "sets/s", n_step],
                [f"eval_sets_per_s{suffix}", sets_per_s(wl.eval_chunk, queries), "sets/s", n_query],
                [f"train_step_ms_p50{suffix}", percentile(steps, 50), "ms", n_step],
                [f"train_step_ms_p90{suffix}", percentile(steps, 90), "ms", n_step],
                [f"eval_chunk_ms_p50{suffix}", percentile(queries, 50), "ms", n_query],
                [f"eval_chunk_ms_p90{suffix}", percentile(queries, 90), "ms", n_query],
                [f"reference_job_s{suffix}", job_s, "s", n_job],
            ]
        else:
            rows += [
                [f"verify_s{suffix}", job_s, "s", n_job],
                [f"decompose_ms_p50{suffix}", percentile(queries, 50), "ms", n_query],
                [f"decompose_ms_p90{suffix}", percentile(queries, 90), "ms", n_query],
                [f"battery_pass_ms{suffix}", round_ms(queries, out.query_tags, wl.query_cases), "ms", n_query],
                [f"order_n_ms_p50{suffix}", percentile(steps, 50), "ms", n_step],
                [f"order_n_ms_p90{suffix}", percentile(steps, 90), "ms", n_step],
                [f"order_n_pass_ms{suffix}", round_ms(steps, out.step_tags, wl.step_cases), "ms", n_step],
            ]
            for dims in wl.step_cases:
                case = [t for t, tag in zip(steps, out.step_tags) if tag == dims]
                rows.append([f"order_n_ms_p50{suffix} {dims}", percentile(case, 50), "ms", len(case)])
    rows.append(["peak_rss_mb", peak_rss_mb(), "MB", 1])
    rows.append(["ops_failed_frac", failed / attempted, f"failed/{attempted}", attempted])
    rows.append(["speed_factor", out.clock.speed_factor(*out.info["timed"]), "x", len(out.clock.tick_ms)])
    return rows


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def environment() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in thread_vars},
        "PINSET_THREADS": os.environ.get("PINSET_THREADS", "unset"),
        "kernel_backend": kernels.active_backend(),
    }


def measured_run(clock: Clock, name: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    """Set up, warm up, measure and check one workload. Untraced, the
    timed work gives the end-to-end metrics. Traced, a third of the work
    runs untraced and two thirds traced (set-up and the checks are traced
    too); the per-layer metrics come from the traced part and the overhead
    from comparing the two. ``clock`` must
    be running."""
    wl = WORKLOADS[name]
    training = isinstance(wl, workloads.TrainingWorkload)
    out = Outcome(clock)
    untraced = Outcome(clock)
    if not trace:
        ctx = wl.setup(seed, workdir)
        wl.warmup(ctx)
        start = clock.mark()
        wl.measure(ctx, seconds, out)
        out.info["timed"] = (start[0], clock.mark()[0])
        wl.check(ctx, out)
        metrics, units = end_to_end_values(wl, out), END_TO_END_UNITS
    else:
        tracer = Tracer()
        with tracer.active():
            ctx = wl.setup(seed, workdir)
        wl.warmup(ctx)
        wl.measure(ctx, seconds / 3.0, untraced)
        with tracer.active():
            wl.measure(ctx, 2.0 * seconds / 3.0, out, op_counter=lambda: tracer.tape_nodes)
            wl.check(ctx, out)
        metrics, units = per_layer_values(tracer, out, untraced, training), dict(per_layer_names())
        write_spans(name, tracer)
    attempted = sum(out.attempted.values()) + sum(untraced.attempted.values())
    failed = sum(out.failed.values()) + sum(untraced.failed.values())
    return {
        "correct": all(passed for _, passed, _ in out.checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "checks": out.checks,
        "report": [] if trace else named_report(name, out),
        "environment": environment(),
        "info": out.info,
    }


def setup_seconds(clock: Clock, spawned_at: float) -> float:
    """Scaled seconds from process start (``spawned_at``, the parent's
    ``time.monotonic`` at spawn) to now."""
    return clock.interval((spawned_at, 0.0), clock.mark())[1] / 1e3


def write_spans(name: str, tracer: Tracer) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{name}.spans.jsonl")
    with open(path, "w") as f:
        for span in tracer.spans:
            f.write(json.dumps(span) + "\n")


def write_reference() -> None:
    ref = {}
    for name, wl in WORKLOADS.items():
        if isinstance(wl, workloads.TrainingWorkload):
            ref[name] = wl.reference_job()[0]
    entries = [
        f" {json.dumps(name)}: [\n" + ",\n".join(f"  {json.dumps(row)}" for row in rows) + "\n ]"
        for name, rows in ref.items()
    ]
    with open(workloads.REFERENCE_PATH, "w") as f:
        f.write("{\n" + ",\n".join(entries) + "\n}\n")
