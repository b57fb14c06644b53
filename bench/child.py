"""One fresh interpreter of the benchmark: set up a workload, then measure it.

``run.py`` launches this file; it is not meant to be run by hand.  Modes:

``setup``
    Import the program, build the workload's inputs, run until the first
    operation completes, report how long that took since interpreter entry.

``measure``
    The same set-up (reported the same way), then deterministic blocks of
    operations until ``--seconds`` have passed.  With ``--trace 1`` the
    first quarter of the window runs untraced -- the reference for the
    tracing overhead and for the fingerprint -- and the rest runs with the
    wrappers of ``tracing.py`` installed.

The result is one JSON object on the last line of standard output.
"""

import time

ENTRY = time.perf_counter()  # before any import of the program: set-up starts here

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def summarise(blocks) -> dict:
    """Pool the blocks of one phase (untraced or traced) into its numbers."""
    op_ms = [ms for block in blocks for ms in block.op_ms]
    span_s = sum(block.span_s for block in blocks)
    first = blocks[0]
    problems = [problem for block in blocks for problem in block.problems]
    if len({block.fingerprint for block in blocks}) > 1:
        problems.append("blocks of one run produced different fingerprints")
    return {
        "blocks": len(blocks),
        "samples": len(op_ms),
        "op_ms_p50": percentile(op_ms, 50) if op_ms else None,
        "op_ms_p90": percentile(op_ms, 90) if op_ms else None,
        "ops_per_s": len(op_ms) / span_s if span_s > 0 else None,
        "planned": sum(block.planned for block in blocks),
        "completed": sum(block.completed for block in blocks),
        "fingerprint": first.fingerprint,
        "problems": problems,
        "block_ops": first.completed,
        "loss_final": first.loss_final,
        "density_actual": first.density,
        "sent_elements": first.sent_elements,
        "comm_calls": first.comm_calls,
        "sent_by_tag": first.sent_by_tag,
        "virtual_s": first.virtual_s,
        "union_size": first.union_size,
    }


def run_blocks(workload, seconds: float, tracer=None) -> list:
    """Whole blocks until the window is over (the last may overrun by half).

    Traced, every block runs under a root span of the benchmark's own, so
    what the block spends outside any wrapped layer is the root's self time.
    """
    blocks = []
    start = time.perf_counter()
    while True:
        block_start = time.perf_counter()
        if tracer is None:
            blocks.append(workload.run_block())
        else:
            tracer.run_id += 1
            frame = tracer.open("bench.block")
            try:
                blocks.append(workload.run_block())
            finally:
                tracer.close(frame)
        now = time.perf_counter()
        if now + 0.5 * (now - block_start) >= start + seconds:
            return blocks


def layer_metrics(tracer, main: dict, traced: dict, workload_extras: dict) -> dict:
    """The per-layer table of one traced phase (``main`` = its snapshot)."""
    from tracing import SPAN_NAMES
    from workloads import TRAFFIC_TAGS

    ops = max(traced["completed"], 1)
    block_ops = max(traced["block_ops"], 1)
    out = {}
    for span in SPAN_NAMES:
        own, calls, _ = main["totals"].get(span, (0.0, 0, 0.0))
        out[f"{span}.self_ms_per_op"] = own * 1e3 / ops
        out[f"{span}.calls_per_op"] = calls / ops
    counters = main["counters"]
    out["tensor.tensors_created_per_op"] = counters.get("tensors_created", 0.0) / ops
    out["comm.calls_per_op"] = traced["comm_calls"] / block_ops
    for tag in TRAFFIC_TAGS:
        out[f"comm.sent_elements_per_op.{tag}"] = traced["sent_by_tag"].get(tag, 0.0) / block_ops
    out["sparsifiers.k_selected_per_op"] = counters.get("k_selected", 0.0) / ops
    # sparse_exchange reports the union where it runs (lock-step, sweep
    # cells); the asynchronous schedule and select_scale report their own.
    union = counters.get("union_size", 0.0) / ops
    out["sparsifiers.union_size_per_op"] = union if union else traced["union_size"] / block_ops
    slowest = list(tracer.slowest_select.values())
    out["sparsifiers.select_ms_slowest_rank"] = sum(slowest) * 1e3 / len(slowest) if slowest else 0.0
    _, init_calls, init_seconds = main["totals"].get("training.trainer_init", (0.0, 0, 0.0))
    out["setup.trainer_init_s"] = init_seconds / init_calls if init_calls else 0.0
    root_self, root_seconds = main["roots"]
    out["trace.attributed_frac"] = 1.0 - root_self / root_seconds if root_seconds else 0.0
    out["trace.unresolved_targets"] = float(len(tracer.unresolved))
    out["trace.span_count"] = float(main["span_count"])
    out.update(workload_extras)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args()

    import_start = time.perf_counter()
    import workloads  # imports numpy and the program's public packages

    import_s = time.perf_counter() - import_start
    workload = workloads.build_workload(args.workload, args.seed, bool(args.quick))
    build_start = time.perf_counter()
    workload.build()
    task_build_s = time.perf_counter() - build_start
    workload.first_op()
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "setup": {
            "setup_s": time.perf_counter() - ENTRY,
            "import_s": import_s,
            "task_build_s": task_build_s,
        },
    }
    if args.mode == "measure":
        untraced_seconds = args.seconds * (0.25 if args.trace else 1.0)
        doc["untraced"] = summarise(run_blocks(workload, untraced_seconds))
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            tracer.active = True
            frame = tracer.open("bench.setup")
            workload.start_tracing(tracer)
            tracer.close(frame)
            traced = summarise(run_blocks(workload, args.seconds - untraced_seconds, tracer))
            main_phase = tracer.snapshot()
            extras, problems = workload.traced_extras(tracer, args.out_dir)
            tracer.active = False
            overlapping = tracer.overlapping_selections()
            if overlapping:
                problems.append(f"{overlapping} traced DEFT rounds selected overlapping index sets")
            if traced["fingerprint"] != doc["untraced"]["fingerprint"]:
                problems.append("traced and untraced blocks produced different fingerprints")
            traced["problems"].extend(problems)
            layers = layer_metrics(tracer, main_phase, traced, extras)
            layers["setup.import_s"] = import_s
            layers["setup.task_build_s"] = task_build_s
            layers["trace.overhead_frac"] = traced["op_ms_p50"] / doc["untraced"]["op_ms_p50"] - 1.0
            doc["traced"] = traced
            doc["per_layer"] = layers
            doc["unresolved_targets"] = tracer.unresolved
            args.out_dir.mkdir(parents=True, exist_ok=True)
            tracer.write_chrome_trace(args.out_dir / f"trace_{args.workload}.json", args.workload)
        doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
