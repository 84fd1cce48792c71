"""Rewrite-latency benchmark for sqpo.

Run from the root of a checkout:

    python3 perfbench/run.py --workload data_fwd --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --sweep --seed 1

One process, one thread, a closed loop with one client: each op starts
after the previous one has finished and been checked. The workloads and
their ops are defined in `workloads.py`. Metric names and units are read
from `BENCHMARK.json` at the checkout root; `layers.json` holds what that
file cannot: each workload's sizes and op rotation, and for each per-layer
metric the end-to-end metric and workload it should move.

The gated end-to-end metrics exist on every workload:

    op_ms_p50    mean over the workload's op kinds of each kind's median
                 latency (kinds rotate in equal shares)
    op_ms_p90    mean over the workload's op families of the family's p90
    ops_per_s    ops completed divided by their summed latency
    setup_s      median over repeated set-ups of the time spent in sqpo
                 calls building the base inputs
    peak_rss_mb  peak resident memory of the process

Printed but not gated: the per-family `{match,fwd,bwd,validate}_ms_p50`
and `_p90`, per-kind medians, raw wall-clock medians and `error_rate`.

`--trace 0` times the ops with the library unmodified and reports the
end-to-end metrics. `--trace 1` alternates untraced and traced runs of each
op and reports the per-layer metrics of the traced runs (see `spans.py`).
`--sweep` times one match, one forward and one backward op at growing
data sizes and fits log-log exponents of the constructions' self time
against their input size.

Times are reported at reference speed. A shared two-core host can change
speed by 2x within minutes, so each timed call is
bracketed by two runs of a fixed pure-Python reference loop, and its wall
time is scaled by REF_LOOP_MS / (median time of the recent loops). The
scaled value is the call's time on a host where the reference loop takes
REF_LOOP_MS; host speed drift cancels out. Raw wall-clock medians are
printed alongside.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The lines before it list
every metric with its unit, the per-family latencies, the output digest
and any failed check.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from collections import deque
from pathlib import Path

from spans import Totals, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"
OUT_DIR = Path(".bench_out")
FAMILIES = ("match", "fwd", "bwd", "validate")
SETUP_REPEATS = 9
SWEEP_SIZES = (500, 1000, 2000, 4000)
SWEEP_FUNCTIONS = ("category.final_pbc", "category.pullback", "category.pushout", "rules.find_matches")
REF_LOOP_MS = 2.5  # nominal time of one reference_loop() call
_perf = time.perf_counter


def reference_loop():
    """Fixed dictionary-heavy work, the yardstick for host speed."""
    d = {}
    for i in range(20_000):
        k = i % 1000
        d[k] = d.get(k, 0) + i
    return d


class Clock:
    """Wall time scaled to reference speed.

    Each timed call is bracketed by two reference loops; the scale is the
    median of the last `window` loop times, which follows host speed drift
    over a few seconds without adding the noise of single loops."""

    def __init__(self, window: int = 9):
        self.loops: deque[float] = deque(maxlen=window)

    def _loop(self):
        start = _perf()
        reference_loop()
        self.loops.append(_perf() - start)

    def time(self, fn, *args):
        """Call fn(*args); return its result, its wall seconds and its
        seconds at reference speed."""
        self._loop()
        start = _perf()
        result = fn(*args)
        wall = _perf() - start
        self._loop()
        return result, wall, wall * (REF_LOOP_MS / 1e3) / statistics.median(self.loops)


def import_sqpo():
    """Import sqpo from this checkout's sources, never from elsewhere."""
    if not (SRC / "sqpo" / "__init__.py").is_file():
        raise SystemExit(f"error: sqpo sources not found at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sqpo

    if Path(sqpo.__file__).resolve().parent != SRC / "sqpo":
        raise SystemExit(f"error: imported sqpo from {sqpo.__file__}, not {SRC}")


def p50(samples):
    return statistics.median(samples)


def p90(samples):
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


class Run:
    """Latencies, failures and digests of one measured loop."""

    def __init__(self):
        self.clock = Clock()
        self.latency: dict[str, list[float]] = {}  # op kind -> seconds at reference speed
        self.traced_latency: dict[str, list[float]] = {}
        self.wall: dict[str, list[float]] = {}  # op kind -> wall seconds
        self.traced_wall: dict[str, float] = {}  # op kind -> summed wall seconds
        self.family_of: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.applications = 0
        self.objects_updated = 0
        self.traced_ops = 0

    def execute(self, op, tracer=None, op_id=None):
        """Run one op (traced when a tracer is given), time it, check it.
        Returns the per-op trace totals, or None."""
        self.attempted += 1
        totals = None
        try:
            if tracer is None:
                result, wall, scaled = self.clock.time(op.run)
            else:
                (result, totals), wall, scaled = self.clock.time(tracer.run, op_id, op.run)
            outcome = op.check(result)
        except Exception as exc:  # a raising op is a failed op, and the run goes on
            self._fail([f"{op.key}: {type(exc).__name__}: {exc}"])
            return None
        problems = list(outcome.problems)
        first = self.digests.setdefault(op.key, outcome.digest)
        if first != outcome.digest:
            problems.append(f"{op.key}: output differs from its first run")
        if problems:
            self._fail(problems)
            return None
        self.family_of[op.kind] = op.family
        if tracer is None:
            self.latency.setdefault(op.kind, []).append(scaled)
            self.wall.setdefault(op.kind, []).append(wall)
        else:
            self.traced_latency.setdefault(op.kind, []).append(scaled)
            self.traced_wall[op.kind] = self.traced_wall.get(op.kind, 0.0) + wall
            self.traced_ops += 1
            self.applications += outcome.applications
            self.objects_updated += outcome.objects_updated
        return totals

    def _fail(self, problems):
        self.failed += 1
        self.failures.extend(problems)

    def by_family(self, samples) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for kind, values in samples.items():
            out.setdefault(self.family_of[kind], []).extend(values)
        return {f: out[f] for f in FAMILIES if f in out}

    def digest(self) -> str:
        text = json.dumps(sorted(self.digests.items()))
        return hashlib.sha256(text.encode()).hexdigest()


def loop(workload, seconds, tracer=None, max_ops=None):
    """Rotate through the workload's ops for `seconds` (or `max_ops` ops)."""
    run = Run()
    family_totals: dict[str, Totals] = {}
    ops = workload.ops
    start = _perf()
    i = 0
    while True:
        op = ops[i % len(ops)]
        i += 1
        run.execute(op)
        if tracer is not None:
            totals = run.execute(op, tracer, f"{i}:{op.key}")
            if totals is not None:
                family_totals.setdefault(op.family, Totals()).add(totals)
        if max_ops is not None and i >= max_ops:
            break
        if max_ops is None and _perf() - start >= seconds:
            break
    return run, family_totals


def print_shares(run, family_totals, top=8):
    """Inclusive time of the busiest spans as a share of the traced ops' wall time."""
    for family, t in family_totals.items():
        wall = sum(run.traced_wall[k] for k, f in run.family_of.items()
                   if f == family and k in run.traced_wall)
        busiest = sorted(t.total_s.items(), key=lambda kv: -kv[1])[:top]
        print(f"share of traced {family} time: " + ", ".join(
            f"{name} {100 * total / wall:.1f}%" for name, total in busiest))


def end_to_end(run, setup_times):
    """Gated metrics and the per-family detail, in milliseconds."""
    kinds = run.latency
    if not kinds:
        raise SystemExit("error: every op failed; there is no latency to report")
    families = run.by_family(run.latency)
    every = [x for values in kinds.values() for x in values]
    metrics = {
        "op_ms_p50": (statistics.fmean(p50(v) for v in kinds.values()) * 1e3, "ms"),
        "op_ms_p90": (statistics.fmean(p90(v) for v in families.values()) * 1e3, "ms"),
        "ops_per_s": (len(every) / sum(every), "1/s"),
        "setup_s": (p50(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {}
    for f, values in families.items():
        detail[f"{f}_ms_p50"] = (p50(values) * 1e3, "ms")
        detail[f"{f}_ms_p90"] = (p90(values) * 1e3, "ms")
        detail[f"{f}_samples"] = (len(values), "count")
    for kind, values in kinds.items():
        detail[f"{run.family_of[kind]}.{kind}_ms_p50"] = (p50(values) * 1e3, "ms")
        detail[f"{run.family_of[kind]}.{kind}_wall_ms_p50"] = (p50(run.wall[kind]) * 1e3, "ms")
    # op_ms_p50 and op_ms_p90 from unscaled wall times, to show what the scaling removes
    wall_families = run.by_family(run.wall)
    detail["op_wall_ms_p50"] = (statistics.fmean(p50(v) for v in run.wall.values()) * 1e3, "ms")
    detail["op_wall_ms_p90"] = (statistics.fmean(p90(v) for v in wall_families.values()) * 1e3, "ms")
    detail["error_rate"] = (run.failed / run.attempted, "ratio")
    return metrics, detail


def per_layer(run, t, setup_t, layer_names):
    """Per-op layer metrics from the traced ops' totals `t`."""
    n = max(run.traced_ops, 1)

    def self_ms(*names):
        return sum(t.self_s[x] for x in names) * 1e3 / n

    def total_ms(*names):
        return sum(t.total_s[x] for x in names) * 1e3 / n

    def us_per_elem(name):
        return t.self_s[name] * 1e6 / t.in_elems[name] if t.in_elems[name] else 0.0

    m = {}
    for name in ("graphs.compose", "graphs.hom_equal", "graphs.is_mono",
                 "graphs.homomorphism_violation", "hierarchy.validate_commutativity",
                 "hierarchy.composed_typing", "propagation.check_composability",
                 "propagation.restriction_pullback", "propagation.lift_rule"):
        m[f"{name}.calls"] = t.calls[name] / n
        m[f"{name}.self_ms"] = self_ms(name)
    m["graphs.json.self_ms"] = self_ms("graphs.json", "graphs.dumps")
    for name in ("category.pullback", "category.pushout", "category.final_pbc"):
        m[f"{name}.calls"] = t.calls[name] / n
        m[f"{name}.self_ms"] = self_ms(name)
        m[f"{name}.in_elems"] = t.in_elems[name] / n
        m[f"{name}.out_elems"] = t.out_elems[name] / n
        m[f"{name}.us_per_elem"] = us_per_elem(name)
    fm = "rules.find_matches"
    m[f"{fm}.calls"] = t.calls[fm] / n
    m[f"{fm}.self_ms"] = self_ms(fm)
    m[f"{fm}.matches"] = t.out_elems[fm] / n
    m[f"{fm}.us_per_elem"] = us_per_elem(fm)
    m["rules.build_rule.self_ms"] = self_ms("rules.build_rule")
    m["hierarchy.add_typing.calls"] = setup_t.calls["hierarchy.add_typing"]
    m["hierarchy.add_typing.self_ms"] = setup_t.self_s["hierarchy.add_typing"] * 1e3
    m["hierarchy.validate.self_ms"] = self_ms("hierarchy.validate")
    m["hierarchy.subgraph.self_ms"] = self_ms("hierarchy.subgraph")
    m["hierarchy.successors.calls"] = t.calls["hierarchy.successors"] / n
    m["hierarchy.predecessors.calls"] = t.calls["hierarchy.predecessors"] / n
    m["propagation.propagate_forward.self_ms"] = self_ms("propagation.propagate_forward")
    m["propagation.propagate_backward.self_ms"] = self_ms("propagation.propagate_backward")
    m["propagation.objects_updated"] = run.objects_updated / n
    m["propagation.applications"] = run.applications / n
    for name in ("build_relation_plan", "derive_forward_factorization",
                 "derive_backward_factorization", "apply_plan"):
        m[f"relations.{name}.self_ms"] = self_ms(f"relations.{name}")
    m["cli.main.self_ms"] = self_ms("cli.main")
    m["cli.load_ms"] = total_ms("cli.load", "hierarchy.from_json", "rules.from_json")
    m["cli.write_ms"] = total_ms("hierarchy.to_json", "cli.write", "graphs.dumps")
    traced = run.by_family(run.traced_latency)
    untraced = run.by_family(run.latency)
    ratios = {f: p50(traced[f]) / p50(untraced[f]) for f in traced if f in untraced}
    m["trace.overhead_ratio"] = statistics.fmean(ratios.values()) if ratios else 1.0
    missing = set(layer_names) - set(m)
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: m[name] for name in layer_names}, ratios


def make_workload(name, seed):
    import workloads

    rng = random.Random(f"{name}:{seed}")
    cls = workloads.WORKLOADS[name]
    if name == "cli_batch":
        return cls(rng, str(OUT_DIR / f"cli-{os.getpid()}"))
    return cls(rng)


def run_workload(args, benchmark, max_ops=None):
    """Set up, run and report one workload; `max_ops` stops the loop after
    that many ops instead of after `args.seconds`."""
    workload = make_workload(args.workload, args.seed)
    try:
        if args.trace:
            tracer = Tracer()
            _, setup_t = tracer.run("setup", workload.setup)
            setup_times = []
        else:
            tracer = setup_t = None
            setup_times = []
            clock = Clock()
            for _ in range(SETUP_REPEATS):
                setup_times.append(clock.time(workload.setup)[2])
        gc.collect()
        run, family_totals = loop(workload, args.seconds, tracer, max_ops)
    finally:
        if hasattr(workload, "cleanup"):
            workload.cleanup()

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for problem in run.failures[:50]:
        print(f"FAILED {problem}")
    if args.trace:
        names = [x["name"] for x in benchmark["per_layer"]]
        units = {x["name"]: x["unit"] for x in benchmark["per_layer"]}
        op_totals = Totals()
        for totals in family_totals.values():
            op_totals.add(totals)
        values, ratios = per_layer(run, op_totals, setup_t, names)
        print_shares(run, family_totals)
        metrics = {k: (v, units[k]) for k, v in values.items()}
        for f, r in ratios.items():
            print(f"trace.overhead_ratio.{f} = {r:.4f}")
        print(f"traced ops {run.traced_ops}, spans kept {len(tracer.spans)}, dropped {tracer.dropped}")
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.dump(span_file)
        print(f"spans written to {span_file}")
    else:
        metrics, detail = end_to_end(run, setup_times)
        for name, (value, unit) in detail.items():
            print(f"{name} = {value:.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"digest {run.digest()} over {len(run.digests)} distinct inputs")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return result, run


def fit_exponent(points):
    """Least-squares slope of log(y) against log(x)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def sweep(args):
    """One traced match, forward insert and backward clone per data size."""
    import workloads

    tracer = Tracer(max_spans=0)
    points = {name: [] for name in SWEEP_FUNCTIONS}
    failed = attempted = 0
    for n in SWEEP_SIZES:
        rng = random.Random(f"sweep:{args.seed}:{n}")
        w = workloads.DataWorkload(rng, n)
        w.setup()
        ops = [w.match_op(0, rng.randrange(workloads.KINDS), rng.randrange(workloads.KINDS)),
               w.insert_op(0, w.draw_node(), True),
               w.clone_op(0, rng.randrange(workloads.KINDS))]
        run = Run()
        t = Totals()
        for op in ops:
            totals = run.execute(op, tracer, f"{n}:{op.key}")
            if totals is not None:
                t.add(totals)
        attempted += run.attempted
        failed += run.failed
        for problem in run.failures:
            print(f"FAILED N={n} {problem}")
        line = [f"N={n}"]
        for name in SWEEP_FUNCTIONS:
            if t.calls[name]:
                points[name].append((t.in_elems[name], t.self_s[name]))
                line.append(f"{name} {t.self_s[name] * 1e3:.3f} ms / {t.in_elems[name]} elems")
        print("  ".join(line))
    metrics = {f"{name}.exponent": {"value": fit_exponent(pts), "unit": "1"}
               for name, pts in points.items() if len(pts) >= 2}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.3f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sweep", action="store_true", help="run the scaling sweep")
    args = parser.parse_args(argv)
    import_sqpo()
    if args.sweep:
        sweep(args)
        return 0
    benchmark = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    run_workload(args, benchmark)
    return 0


if __name__ == "__main__":
    sys.exit(main())
