#!/usr/bin/env python3
"""The repo's one benchmark: six serving workloads, offline + paced phases,
an outside-in layer trace, output checks — one command.

    python3 benchmarks/suite/run.py --seed 1                      # everything
    python3 benchmarks/suite/run.py --seed 1 --workload long_context_decode
    python3 benchmarks/suite/run.py --workload W --seed S --seconds 14 --trace 0|1
    python3 benchmarks/suite/run.py --repeat 5 --out DIR [--workload W]
    python3 benchmarks/suite/run.py --compare DIR_A DIR_B
    python3 benchmarks/suite/run.py --smoke

``--trace 0`` runs the untraced phases (set-up, offline, paced) and reports
the end-to-end metrics; ``--trace 1`` repeats the offline phase untraced
and traced and reports the per-layer metrics; without ``--trace`` both
run.  With ``--workload`` and ``--trace`` the last line of standard output
is the result object ``BENCHMARK.json``'s driver reads.  The exit code is
non-zero when any output check fails.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, pinned before numpy is imported: the benchmark measures
# the serving stack's own scaling, not the BLAS pool's.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parents[1]
OUT_DIR = SUITE_DIR / "out"
sys.path.insert(0, str(SUITE_DIR))
if (REPO_ROOT / "src" / "repro").is_dir():
    sys.path.insert(1, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

import metrics  # noqa: E402
import phases  # noqa: E402
import tracegen  # noqa: E402
from workloads import REF_SECONDS, WORKLOADS, Workload, smoke_variant  # noqa: E402

SETUP_SAMPLES = 5
SERIAL_SAMPLE = 8
SERIAL_TOKENS = 64


def host_block() -> Dict[str, object]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


class Checks:
    """Output checks of one run; any failure fails the run."""

    def __init__(self) -> None:
        self.results: List[Tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(ok for _name, ok, _detail in self.results)

    def lines(self) -> List[str]:
        return [
            f"  check {'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else "")
            for name, ok, detail in self.results
        ]


def check_phase(checks: Checks, label: str, phase, trace) -> None:
    ids = [tracegen.request_id(i) for i in range(len(trace))]
    once = all(phase.terminal_counts.get(rid, 0) == 1 for rid in ids)
    checks.add(
        f"{label}: one terminal response per request",
        once and len(phase.finish) == len(ids),
        f"{len(phase.finish)}/{len(ids)} responses",
    )
    checks.add(f"{label}: no failed request", phase.failed == 0, f"{phase.failed} failed")
    pool = phase.stats.get("kv_pool") or {}
    cache = phase.stats.get("prefix_cache") or {}
    checks.add(
        f"{label}: pages in use at quiescence are the prefix cache's",
        pool.get("pages_in_use", 0) == cache.get("pages_held", 0),
        f"{pool.get('pages_in_use', 0)} in use, {cache.get('pages_held', 0)} cached",
    )


def check_identical(checks: Checks, label: str, a, b) -> None:
    differing = [rid for rid, tokens in a.tokens.items() if b.tokens.get(rid) != tokens]
    checks.add(
        f"{label}: token-identical outputs",
        not differing and len(a.tokens) == len(b.tokens),
        f"{len(differing)} of {len(a.tokens)} differ",
    )


def serial_match_share(workload: Workload, trace, phase) -> float:
    """Share of the first ``SERIAL_TOKENS`` output tokens of
    ``SERIAL_SAMPLE`` evenly spaced requests that equal
    ``greedy_generate_serial`` with the same policy factory, counted up to
    each request's first divergence (greedy decoding: nothing after a
    divergence is comparable)."""
    from repro.llm.generation import greedy_generate_serial
    from workloads import POLICY_TABLE, build_model

    model = build_model(workload.model)
    picks = sorted({int(i) for i in np.linspace(0, len(trace) - 1, SERIAL_SAMPLE)})
    matched = compared = 0
    for index in picks:
        record = trace[index]
        budget = min(record.max_new_tokens, SERIAL_TOKENS)
        reference = greedy_generate_serial(
            model, record.prompt_ids, budget, POLICY_TABLE[record.policy]
        ).token_ids
        served = phase.tokens[tracegen.request_id(index)][:budget]
        compared += len(reference)
        for ours, theirs in zip(served, reference):
            if ours != theirs:
                break
            matched += 1
    return matched / compared if compared else 1.0


def run_untraced(workload: Workload, trace, setup_samples: int) -> Dict[str, object]:
    """Set-up, offline phase, paced phase; the end-to-end metrics."""
    checks = Checks()
    stale_segments = set(phases.leaked_shm_segments())  # someone else's crash, not ours
    offline = phases.isolated(phases.run_phase, workload, trace, None, False)
    paced = phases.isolated(phases.run_phase, workload, trace, workload.paced_rate, False)
    setups = [offline.setup_s, paced.setup_s]
    while len(setups) < setup_samples:
        setups.append(phases.isolated(phases.set_up_only, workload, trace))
    check_phase(checks, "offline", offline, trace)
    check_phase(checks, "paced", paced, trace)
    check_identical(checks, "offline vs paced", offline, paced)
    leaked = sorted(set(phases.leaked_shm_segments()) - stale_segments)
    checks.add("no /dev/shm/repro-* segment left", not leaked, f"{len(leaked)} left")
    rss = max(offline.rss_mb, paced.rss_mb)
    values, diagnostics, detail = metrics.end_to_end(workload, setups, offline, paced, rss)
    if detail["itl_samples"] and diagnostics["paced.generator_lag_ms_p99"] > diagnostics["paced_itl_p50_ms"]:
        detail["flag"] = (
            "generator lag p99 exceeds the ITL median: a request waits for the "
            "running step (or the generator's sleep) before it is submitted, and "
            "TTFT, timed from the due time, includes that wait"
        )
    detail["phases"] = {
        name: {
            "sent": phase.sent,
            "succeeded": phase.succeeded,
            "failed": phase.failed,
            "wall_s": phase.wall_s,
            "requests_per_s": phase.sent / phase.wall_s,
        }
        for name, phase in (("offline", offline), ("paced", paced))
    }
    return {
        "metrics": values,
        "detail": detail,
        "diagnostics": diagnostics,
        "checks": checks,
        "attempted": offline.sent + paced.sent,
        "failed": offline.failed + paced.failed,
    }


def run_traced(workload: Workload, trace, seed: int) -> Dict[str, object]:
    """Offline phase untraced then traced; the per-layer metrics and the
    span file."""
    checks = Checks()
    stale_segments = set(phases.leaked_shm_segments())  # someone else's crash, not ours
    diagnostics: Dict[str, float] = {}
    single_reference = None
    if workload.cluster_workers:
        # The cluster's control: the identical trace on one engine, same
        # run — outputs must match request for request.
        single = replace(workload, cluster_workers=0)
        single_reference = phases.isolated(phases.run_phase, single, trace, None, False)
    untraced = phases.isolated(phases.run_phase, workload, trace, None, False)
    traced = phases.isolated(phases.run_phase, workload, trace, None, True)
    check_phase(checks, "untraced offline", untraced, trace)
    check_phase(checks, "traced offline", traced, trace)
    check_identical(checks, "untraced vs traced", untraced, traced)
    if single_reference is not None:
        check_identical(checks, "cluster vs single engine", single_reference, untraced)
        diagnostics["cluster.tokens_per_s_vs_single"] = (
            (untraced.tokens_out / untraced.wall_s)
            / (single_reference.tokens_out / single_reference.wall_s)
        )
        diagnostics["cluster.submit_us_p50"] = metrics.percentile(traced.submit_s, 50) * 1e6
        diagnostics["cluster.start_s"] = traced.backend_start_s
        diagnostics["cluster.shutdown_s"] = traced.backend_shutdown_s
    match = serial_match_share(workload, trace, untraced)
    if workload.exact_vs_serial:
        checks.add("sampled outputs equal greedy_generate_serial", match == 1.0, f"share {match:.4f}")
    leaked = sorted(set(phases.leaked_shm_segments()) - stale_segments)
    checks.add("no /dev/shm/repro-* segment left", not leaked, f"{len(leaked)} left")
    values, detail = metrics.per_layer(
        workload, trace, traced, untraced.wall_s, match, len(leaked)
    )
    if single_reference is not None:
        detail["single_engine_tokens_per_s"] = single_reference.tokens_out / single_reference.wall_s
    else:
        # One stepping thread: the layers' self times must account for the
        # traced wall, or the per-layer table is not an attribution.
        checks.add(
            "layer self times sum to the traced wall within 5%",
            abs(detail["self_time_coverage"] - 1.0) <= 0.05,
            f"coverage {detail['self_time_coverage']:.4f}",
        )
    shares = {k: v for k, v in detail["layer_self_share"].items() if k != "benchmark"}
    detail["top_layer"] = max(shares, key=shares.get)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    trace_path = OUT_DIR / f"trace_{workload.name}.json"
    with open(trace_path, "w") as handle_out:
        json.dump(
            {
                "workload": workload.name,
                "seed": seed,
                "trace_sha256": tracegen.trace_sha256(trace),
                "host": host_block(),
                "per_layer": values,
                "diagnostics": diagnostics,
                "detail": detail,
                "span_fields": ["id", "name", "start_s", "end_s", "parent", "count"],
                "spans": traced.span_records,
            },
            handle_out,
            separators=(",", ":"),
        )
    detail["trace_file"] = str(trace_path.relative_to(REPO_ROOT))
    return {
        "metrics": values,
        "detail": detail,
        "diagnostics": diagnostics,
        "checks": checks,
        "attempted": untraced.sent + traced.sent,
        "failed": untraced.failed + traced.failed,
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def result_object(run: Dict[str, object], defs: Sequence[metrics.MetricDef]) -> Dict[str, object]:
    """The object the driver reads: exactly these four keys."""
    return {
        "correct": bool(run["checks"].ok and run["failed"] == 0),
        "attempted": int(run["attempted"]),
        "failed": int(run["failed"]),
        "metrics": {
            d.name: {"value": float(run["metrics"][d.name]), "unit": d.unit} for d in defs
        },
    }


def print_run(workload: Workload, traced: bool, run: Dict[str, object],
              defs: Sequence[metrics.MetricDef]) -> None:
    detail = run["detail"]
    diagnostic_units = {d.name: d.unit for d in metrics.DIAGNOSTICS}
    print(f"[{workload.name}] {'traced run: per-layer' if traced else 'untraced phases: end to end'}")
    if not traced:
        for name, phase in detail["phases"].items():
            print(
                f"  phase {name}: sent {phase['sent']} succeeded {phase['succeeded']} "
                f"failed {phase['failed']} wall {phase['wall_s']:.3f}s "
                f"({phase['requests_per_s']:.3f} req/s)"
            )
        print(
            f"  paced at {detail['paced_rate_per_s']} req/s; TTFT n={detail['ttft_samples']} "
            f"tail=p{detail['ttft_tail_percentile']}; ITL n={detail['itl_samples']} "
            f"tail=p{detail['itl_tail_percentile']}; ITL8 n={detail['itl8_samples']}; SLO TTFT<={detail['slo_ttft_ms']}ms "
            f"mean ITL<={detail['slo_itl_ms']}ms; set-ups n={detail['setup_samples']}"
        )
        if "flag" in detail:
            print(f"  FLAG {detail['flag']}")
    else:
        print(
            f"  traced wall {detail['traced_wall_s']:.3f}s, untraced {detail['untraced_wall_s']:.3f}s, "
            f"{detail['serving_processes']} serving process(es), self-time coverage "
            f"{detail['self_time_coverage']:.3f}, top layer {detail['top_layer']}; "
            f"spans in {detail['trace_file']}"
        )
        print("  layer self share: " + "  ".join(
            f"{k}={v:.3f}" for k, v in sorted(detail["layer_self_share"].items(), key=lambda kv: -kv[1])
        ))
        print("  timing samples: " + "  ".join(f"{k}={v}" for k, v in detail["sample_counts"].items()))
    for d in defs:
        print(f"  {d.name:<42} {run['metrics'][d.name]:>16.6f} {d.unit}")
    for name, value in run["diagnostics"].items():
        print(f"  {name:<42} {value:>16.6f} {diagnostic_units[name]}  (diagnostic)")
    for line in run["checks"].lines():
        print(line)


def run_one(workload: Workload, seed: int, seconds: float, traced: bool, smoke: bool) -> Dict[str, object]:
    if smoke:
        workload = smoke_variant(workload)
        count = workload.num_requests
    else:
        count = workload.requests_for(seconds)
    trace = tracegen.generate(workload.trace, count, seed, workload.trace_name or workload.name)
    print(f"[{workload.name}] seed {seed}: {len(trace)} requests, trace sha256 {tracegen.trace_sha256(trace)}")
    if not smoke:
        phases.pretouch_host_memory()
    if traced:
        run = run_traced(workload, trace, seed)
    else:
        run = run_untraced(workload, trace, 2 if smoke else SETUP_SAMPLES)
    defs = metrics.PER_LAYER if traced else metrics.END_TO_END
    print_run(workload, traced, run, defs)
    run["result"] = result_object(run, defs)
    print("RESULT " + json.dumps({
        "workload": workload.name, "seed": seed, "trace": int(traced),
        "result": run["result"], "diagnostics": run["diagnostics"],
    }))
    return run


# ----------------------------------------------------------------------
# Repeatability tool
# ----------------------------------------------------------------------
def load_bounds() -> Dict[str, float]:
    with open(REPO_ROOT / "BENCHMARK.json") as handle:
        return {m["name"]: float(m["bound"]) for m in json.load(handle)["end_to_end"]}


def load_runs(directory: Path) -> Dict[Tuple[str, str], List[float]]:
    """``(workload, metric) -> values`` from a ``--repeat`` output dir."""
    values: Dict[Tuple[str, str], List[float]] = {}
    with open(directory / "runs.jsonl") as handle:
        for line in handle:
            row = json.loads(line)
            for name, metric in row["result"]["metrics"].items():
                values.setdefault((row["workload"], name), []).append(metric["value"])
            for name, value in row.get("diagnostics", {}).items():
                values.setdefault((row["workload"], name), []).append(value)
    return values


def repeat(names: Sequence[str], count: int, seed: int, seconds: float, out: Path) -> int:
    """Run the untraced phases ``count`` times per workload, one process
    per run, seeds ``seed .. seed+count-1``; append to ``out/runs.jsonl``."""
    out.mkdir(parents=True, exist_ok=True)
    status = 0
    with open(out / "runs.jsonl", "a") as log:
        for i in range(count):
            for name in names:
                done = subprocess.run(
                    [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                     "--seed", str(seed + i), "--seconds", str(seconds), "--trace", "0"],
                    capture_output=True, text=True,
                )
                rows = [line for line in done.stdout.splitlines() if line.startswith("RESULT ")]
                if done.returncode != 0 or not rows:
                    print(f"run failed: {name} seed {seed + i}\n{done.stdout}\n{done.stderr}")
                    status = 1
                    continue
                log.write(rows[-1][len("RESULT "):] + "\n")
                log.flush()
                print(f"  {name} seed {seed + i}: ok")
    report(load_runs(out), None)
    return status


def report(first: Dict[Tuple[str, str], List[float]],
           second: Optional[Dict[Tuple[str, str], List[float]]]) -> int:
    """Median, quartiles and relative spread per workload x end-to-end
    metric against the bounds of BENCHMARK.json.

    One set: ``within-bound`` when the spread fits the bound, otherwise
    ``UNRESOLVED``.  Two sets: additionally ``WORSE`` when the second
    median is worse than the first by more than the bound."""
    bounds = load_bounds()
    better = {d.name: d.better for d in metrics.END_TO_END}
    unresolved = 0
    print(f"{'workload':<24}{'metric':<32}{'n':>3}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}  verdict")
    for (workload, name), values in sorted(first.items()):
        median, q1, q3, spread = metrics.quartile_spread(values)
        if name not in bounds:  # a diagnostic: reported, never judged
            print(f"{workload:<24}{name:<32}{len(values):>3}{median:>14.4f}{q1:>14.4f}{q3:>14.4f}{spread:>9.4f}      -  diagnostic")
            continue
        bound = bounds[name]
        verdict = "within-bound" if spread <= bound or name == "setup_s" else "UNRESOLVED"
        line = f"{workload:<24}{name:<32}{len(values):>3}{median:>14.4f}{q1:>14.4f}{q3:>14.4f}{spread:>9.4f}{bound:>7.2f}"
        if second is not None and (workload, name) in second:
            median_b, _q1, _q3, spread_b = metrics.quartile_spread(second[(workload, name)])
            change = (median_b - median) / abs(median) if median else 0.0
            worse = -change if better[name] == "higher" else change
            line += f"  | second {median_b:>14.4f} spread {spread_b:.4f} change {change:+.4f}"
            if name != "setup_s" and max(spread, spread_b) > bound:
                verdict = "UNRESOLVED"
            elif worse > bound:
                verdict = "WORSE"
        if verdict != "within-bound":
            unresolved += 1
        print(f"{line}  {verdict}")
    return unresolved


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(REF_SECONDS),
                        help=f"how long one run measures; request counts scale with it (reference {REF_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: untraced phases, end-to-end metrics; 1: traced run, per-layer metrics; default both")
    parser.add_argument("--smoke", action="store_true", help="tiny counts and lengths: a self-test, not a measurement")
    parser.add_argument("--repeat", type=int, metavar="N", help="repeatability: N untraced runs per workload into --out")
    parser.add_argument("--out", type=Path, help="directory for --repeat results (appended)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"), help="compare two --repeat directories")
    args = parser.parse_args(argv)

    if args.compare:
        return 1 if report(load_runs(args.compare[0]), load_runs(args.compare[1])) else 0
    try:
        import repro  # noqa: F401
    except ImportError:
        print("the repro package is not importable: run from a checkout that has src/", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.repeat:
        if args.out is None:
            parser.error("--repeat needs --out DIR")
        return repeat(names, args.repeat, args.seed, args.seconds, args.out)

    print("host " + json.dumps(host_block()))
    started = time.perf_counter()
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    runs = [
        run_one(WORKLOADS[name], args.seed, args.seconds, traced, args.smoke)
        for name in names
        for traced in modes
    ]
    ok = all(run["result"]["correct"] for run in runs)
    print(f"{'all checks passed' if ok else 'CHECKS FAILED'} in {time.perf_counter() - started:.1f}s")
    if args.workload and args.trace is not None:
        print(json.dumps(runs[0]["result"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
