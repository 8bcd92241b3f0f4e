"""Run one workload of the gkernel benchmark and print its metrics.

    python3 perfbench/run.py --workload ergodic|price|decompose \
        --seed N --seconds S --trace 0|1

The package is imported from ``src/`` next to this directory, so nothing
needs installing.  The run sets up the workload ``SETUP_REPEATS`` times, then
runs whole rounds of the workload's operations until ``--seconds`` have
passed, checking every result.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
with ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` its per-layer metrics.  End-to-end times are scaled by a
reference kernel timed around each piece of work (``reference.py``).  A
traced run alternates untraced and traced rounds, reports the tracing
overhead from the two, and writes its spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 3


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("ergodic", "price", "decompose"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_package():
    """Import gkernel from this checkout's ``src/``; time the import."""
    src = ROOT / "src"
    if not (src / "gkernel" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no gkernel sources under {src}")
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import gkernel
    return gkernel, perf_counter() - t0


def _metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _dim_time(rounds, ops, dim):
    """Sum over the operations on ``dim``-dimensional models of their median time.

    Taking the median per operation before summing keeps a slow spell of
    the machine, which hits one operation of one round, out of the figure.
    """
    total = 0.0
    for op in ops:
        times = [r[op.name] for r in rounds if op.name in r]
        if op.dim == dim and times:
            total += statistics.median(times)
    return total


def main(argv=None) -> int:
    args = _parse_args(argv)
    end_to_end, per_layer = _metric_specs()
    gk, import_s = _import_package()

    # the benchmark's own modules load after the timed import of gkernel
    import reference
    from spans import Tracer, layer_metrics
    from workloads import ALL_SOLVES, PATH_OPS, WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](OUT_DIR)
    tracer = Tracer(gk) if args.trace else None
    # times are scaled by a reference kernel timed between the pieces of work
    clock = reference.Clock()
    clock.tick()

    setup_times = []  # scaled seconds
    if tracer:
        tracer.install()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        with tracer.operation("setup", "setup") if tracer else nullcontext():
            workload.setup(gk, args.seed)
        elapsed = perf_counter() - t0
        clock.tick()
        setup_times.append(clock.scale(elapsed))
        if tracer:
            tracer.ops[-1]["scale"] = setup_times[-1] / elapsed

    ops = workload.ops()
    plain, traced = [], []  # per round: op name -> scaled seconds
    raw = []                # per untraced round: op name -> seconds as measured
    failures: list[str] = []
    attempted = failed = 0
    deadline = perf_counter() + args.seconds
    while True:
        tracing = tracer is not None and len(plain) > len(traced)
        if tracer:
            tracer.install() if tracing else tracer.uninstall()
        times, raw_times, summaries = {}, {}, {}
        for op in ops:
            attempted += 1
            span = (tracer.operation(op.name, "round", op.control_steps)
                    if tracing else nullcontext())
            try:
                with span:
                    t0 = perf_counter()
                    result = op.run()
                    raw_times[op.name] = perf_counter() - t0
            except Exception:  # an operation that raises is counted, and the run goes on
                failed += 1
                print(f"operation {op.name} failed:", file=sys.stderr)
                traceback.print_exc()
                continue
            msgs, summaries[op.name] = op.check(result)
            del result
            failures += msgs
            clock.tick()
            times[op.name] = clock.scale(raw_times[op.name])
            if tracing:
                tracer.ops[-1]["scale"] = times[op.name] / raw_times[op.name]
        failures += workload.check_round(summaries)
        (traced if tracing else plain).append(times)
        if not tracing:
            raw.append(raw_times)
        if perf_counter() >= deadline and (tracer is None or traced):
            break
    if tracer:
        tracer.uninstall()

    for msg in dict.fromkeys(failures):
        print(f"check failed: {msg}", file=sys.stderr)

    for op in ops:
        ts = [r[op.name] for r in raw if op.name in r]
        if not ts:
            continue
        med = statistics.median(ts)
        rate = f", {op.path_steps / med:.4g} path-steps/s" if op.path_steps else ""
        scaled = statistics.median(r[op.name] for r in plain if op.name in r)
        print(f"{op.name}: median {med:.4f} s over {len(ts)} untraced rounds{rate}, "
              f"{scaled:.4f} s scaled")

    if tracer:
        values = layer_metrics(tracer, len(traced), SETUP_REPEATS)
        for key in PATH_OPS:
            values.setdefault(f"model.eval_calls_per_step.{key}", 0.0)
        for stem in ALL_SOLVES:
            sweeps, halvings = workload.solve_counts.get(stem, (0, 0))
            values[f"pde.ergodic_sweeps.{stem}"] = float(sweeps)
            values[f"pde.ergodic_halvings.{stem}"] = float(halvings)
        base = statistics.median(sum(r.values()) for r in plain)
        with_spans = statistics.median(sum(r.values()) for r in traced)
        values["trace.overhead_pct"] = 100.0 * (with_spans / base - 1.0)
        units = per_layer
        tracer.write(OUT_DIR / f"trace_{args.workload}",
                     {"workload": args.workload, "seed": args.seed, "metrics": values,
                      "untraced_round_s": base, "traced_round_s": with_spans})
    else:
        values = {
            "setup_s": import_s * reference.NOMINAL_S / clock.times[0]
                       + statistics.median(setup_times),
            "d1_s": _dim_time(plain, ops, 1),
            "d2_s": _dim_time(plain, ops, 2),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = end_to_end

    (OUT_DIR / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps({"metrics": values, "import_s": import_s, "setup_s": setup_times,
                    "rounds": plain, "rounds_raw": raw, "rounds_traced": traced,
                    "reference_s": clock.times,
                    "failures": failures}, indent=1) + "\n")
    missing = sorted(set(units) - set(values))
    if missing:
        raise SystemExit(f"benchmark: no value for metric(s) {', '.join(missing)}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
