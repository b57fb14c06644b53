"""Guard benchmark of the observability layer: bit-identity and overhead.

Runs one identical training spec two ways --

- **disabled**: tracing and metrics off (the default every run carries),
- **enabled**: span tracing and metrics both on --

and asserts the guarantee the instrumentation makes: training results are
**bit-identical** across both (same final metrics, same per-iteration loss
series, same virtual-clock makespan).  It also checks the trace
reconciles: for the lock-step schedule the per-phase simulated-time totals
(max per round, summed) satisfy
``compute + collective + push_pull == estimated_wallclock``.

The enabled configuration's host wall-clock overhead over the disabled one
(median of interleaved repeats on both sides) is reported, not gated.

Emits ``BENCH_observability.json`` and a sample Chrome trace
(``--trace-out``, default ``sample_trace.json``) so CI archives an
openable artifact alongside the numbers::

    PYTHONPATH=src python scripts/bench_observability.py
    PYTHONPATH=src python scripts/bench_observability.py --repeats 5 \
        --out BENCH_observability.json --trace-out sample_trace.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from repro.api import ObservabilitySpec, RunSpec, Session
from repro.api.spec import ClusterSpec, ExecutionSpec, OptimizerSpec

def build_spec(args, observability: ObservabilitySpec) -> RunSpec:
    return RunSpec(
        workload=args.workload,
        scale="smoke",
        seed=args.seed,
        cluster=ClusterSpec(
            n_workers=args.workers, straggler_profile="lognormal"
        ),
        optimizer=OptimizerSpec(
            epochs=args.epochs,
            max_iterations_per_epoch=args.max_iterations_per_epoch,
        ),
        execution=ExecutionSpec(model=args.execution),
        observability=observability,
    )


def fingerprint(result) -> dict:
    """Everything training computed, independent of what was recorded."""
    return {
        "final_metrics": dict(result.final_metrics),
        "loss_series": list(result.series("loss").values),
        "density_series": list(result.series("density").values),
        "estimated_wallclock": result.estimated_wallclock,
        "iterations_run": result.iterations_run,
    }


def time_variants(session: Session, variants: dict, repeats: int):
    """Median-of-``repeats`` host seconds per variant, plus one result each.

    Two defences against host timing noise, which on a busy box easily
    exceeds the few-percent effect being measured:

    - repeats are *interleaved* across the variants (with the order
      rotated every round) rather than run back-to-back, so a slow
      scheduling window hits every variant instead of skewing whichever
      one it landed on, and
    - the reported time is the **median** of the samples, which is far
      more stable than the min when slowdowns arrive in multi-second
      bursts rather than as per-run jitter.
    """
    samples = {name: [] for name in variants}
    results = {}
    names = list(variants)
    for round_index in range(repeats):
        shift = round_index % len(names)
        for name in names[shift:] + names[:shift]:
            start = time.perf_counter()
            results[name] = session.run(variants[name])
            samples[name].append(time.perf_counter() - start)
    seconds = {name: statistics.median(times) for name, times in samples.items()}
    return seconds, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="lm")
    parser.add_argument("--workers", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    # Long enough that one run takes O(1s): short runs make min-of-repeats
    # timing noise on a busy host dwarf the effect being guarded.
    parser.add_argument("--epochs", type=int, default=4)
    parser.add_argument("--max-iterations-per-epoch", type=int, default=8)
    parser.add_argument("--execution", default="synchronous")
    parser.add_argument("--repeats", type=int, default=11,
                        help="interleaved timing repeats per variant "
                             "(median is reported)")
    parser.add_argument("--out", default="BENCH_observability.json")
    parser.add_argument("--trace-out", default="sample_trace.json",
                        help="where to write the enabled run's Chrome trace")
    parser.add_argument("--ledger", nargs="?", const="", default=None,
                        metavar="LEDGER.jsonl",
                        help="append a kind=bench entry to the run ledger "
                             "(bare flag: the default ledger location)")
    args = parser.parse_args(argv)

    session = Session()
    variants = {
        "disabled": build_spec(args, ObservabilitySpec()),
        "enabled": build_spec(args, ObservabilitySpec(trace=True, metrics=True)),
    }
    # Warm the dataset cache and every lazily-imported module so the first
    # timed variant is not charged for one-time setup.
    session.run(variants["disabled"])

    seconds, results = time_variants(session, variants, args.repeats)
    for name in variants:
        print(f"  {name:<9} {seconds[name]:7.3f}s  (median of {args.repeats})")
    overhead = seconds["enabled"] / seconds["disabled"] - 1.0
    print(f"enabled overhead: {overhead * 100:+.2f}% (reported, not gated)")

    # Guard 1: recording must never perturb training.
    prints = {name: fingerprint(result) for name, result in results.items()}
    if prints["disabled"] != prints["enabled"]:
        raise SystemExit("training results are NOT bit-identical across variants")
    print("bit-identity: disabled == enabled")

    # Guard 2: the trace reconciles with the virtual clock.
    trace = results["enabled"].observability["trace"]
    totals = trace["otherData"]["simulated_phase_totals"]
    on_clock = totals["compute"] + totals["collective"] + totals["push_pull"]
    wallclock = results["enabled"].estimated_wallclock
    if abs(on_clock - wallclock) > 1e-9 * max(1.0, wallclock):
        raise SystemExit(
            f"trace does not reconcile: compute+collective+push_pull "
            f"{on_clock!r} != estimated_wallclock {wallclock!r}"
        )
    print(f"trace reconciles: compute+collective+push_pull = "
          f"estimated_wallclock = {wallclock:.4f}s "
          f"({trace['otherData']['n_spans']} spans)")

    with open(args.trace_out, "w") as handle:
        json.dump(trace, handle)
    payload = {
        "benchmark": "observability",
        "workload": args.workload,
        "workers": args.workers,
        "execution": args.execution,
        "iterations": results["disabled"].iterations_run,
        "repeats": args.repeats,
        "seconds": seconds,
        "enabled_overhead_fraction": overhead,
        "bit_identical": True,
        "trace_spans": trace["otherData"]["n_spans"],
        "simulated_phase_totals": totals,
        "estimated_wallclock": wallclock,
    }
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"wrote {args.out} and {args.trace_out}")
    if args.ledger is not None:
        from repro.observability import RunLedger

        ledger = RunLedger(args.ledger or None)
        # Host-dependent throughput numbers: kind="bench" keeps them out of
        # `repro check` unless --include-bench asks for them.
        ledger.append({
            "kind": "bench",
            "spec_key": "bench:observability",
            "source": "bench",
            "run_name": "bench_observability",
            "metrics": {
                "enabled_overhead_fraction": overhead,
                "disabled_seconds": seconds["disabled"],
                "estimated_wallclock": wallclock,
                "trace_spans": float(trace["otherData"]["n_spans"]),
            },
            "phase_totals": {k: float(v) for k, v in totals.items()},
        })
        print(f"ledger: appended bench entry to {ledger.path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
