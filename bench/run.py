"""youngbsde benchmark: end-to-end metrics per workload, or per-layer metrics
from a traced run.

    python3 bench/run.py --workload fk-table --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 55 --trace 0

Run from anywhere; it imports the package from the `src/` next to this
directory and fails without a result when that is missing.  `--workload all`
runs every workload in its own process, one after the other.

--trace 0 prints wall_s, path_steps_per_s, setup_s and peak_rss_mb, and the
failure count behind failed_frac.  Every run starts with one untimed
warm-up solve, whose check still counts.  --trace 1 alternates untraced and
traced solves and prints the per-layer metrics (see NOTES.md).  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Outputs, per-run results and span dumps go
to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
NAMES = ("fk-table", "lsmc-sweep", "double-approx")
SETUP_REPEATS = 3  # problem set-ups per run; also imports, counting this one
MIN_SOLVES = 3  # untraced solves per run, whatever --seconds says
MIN_ROUNDS = 2  # untraced + traced pairs per traced run
WORKERS = min(2, os.cpu_count() or 1)

END_TO_END_UNITS = {"wall_s": "s", "path_steps_per_s": "1/s",
                    "setup_s": "s", "peak_rss_mb": "MiB"}

# per-layer metric -> (span name, "total" or "self")
LAYER_TIMES = {
    "diffusion.rng.s": ("diffusion.rng", "total"),
    "diffusion.simulate.self_s": ("diffusion.simulate", "self"),
    "diffusion.first_exit.s": ("diffusion.first_exit", "total"),
    "drivers.increment_pairs.s": ("drivers.increment_pairs", "total"),
    "young_calculus.young_sum_batch.self_s":
        ("young_calculus.young_sum_batch", "self"),
    "regression.poly_basis.s": ("regression.poly_basis", "total"),
    "regression.ridge_fit.s": ("regression.ridge_fit", "total"),
    "bsde.solve_localized_bsde.self_s": ("bsde.solve_localized_bsde", "self"),
    "bsde.cross_fit.s": ("bsde.cross_fit", "total"),
    "pde_fk.fk_point_estimate.self_s": ("pde_fk.fk_point_estimate", "self"),
    "pde_fk.double_approximation.self_s":
        ("pde_fk.double_approximation", "self"),
    "experiments.run_experiment.self_s":
        ("experiments.run_experiment", "self"),
    "csvio.write_csv.s": ("csvio.write_csv", "total"),
    "manifest.write_manifest.s": ("manifest.write_manifest", "total"),
    "cli.main.self_s": ("cli.main", "self"),
}
LAYER_COUNTS = ("diffusion.rng.streams", "drivers.increment_pairs.points",
                "drivers.base_field.points", "regression.ridge_fit.calls",
                "regression.ridge_fit.rows", "bsde.solve_localized_bsde.calls",
                "bsde.picard_iterations")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0 (it becomes the config seed)")
    return args


def _import_program():
    """Put the checkout's src/ first on the path and import from it; never
    fall back to an installed copy.  Returns the import time in seconds."""
    src = ROOT / "src"
    if not (src / "youngbsde" / "__init__.py").is_file():
        sys.exit(f"bench: no youngbsde sources under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import youngbsde
    import workloads  # noqa: F401  (numpy, scipy and every solver module)
    elapsed = time.perf_counter() - start
    if Path(youngbsde.__file__).resolve().parent != src / "youngbsde":
        sys.exit(f"bench: youngbsde imported from {youngbsde.__file__}")
    return elapsed


def _fresh_import_s() -> float:
    """What `_import_program` times, in a fresh interpreter."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
            "start = time.perf_counter(); import youngbsde, workloads; "
            "print(time.perf_counter() - start)")
    paths = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    proc = subprocess.run([sys.executable, "-c", code, *paths],
                          stdout=subprocess.PIPE, text=True, check=True)
    return float(proc.stdout)


class Ledger:
    """Attempts, failures and timings of the solves of one run.  A solve
    fails when it raises, when its check fails, or when its checked values
    differ from the first solve's (same seed, so they must be identical)."""

    def __init__(self, workload, state):
        self.workload = workload
        self.state = state
        self.attempted = 0
        self.failed = 0
        self.first_values = None
        self.first_detail = ""

    def solve(self, workers: int, tracer=None) -> float:
        self.attempted += 1
        start = time.perf_counter()
        try:
            outcome = self.workload.solve(self.state, workers, tracer)
        except Exception as exc:  # a solve that raises is a failed solve
            elapsed = time.perf_counter() - start
            self.failed += 1
            print(f"FAILED {self.workload.name}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return elapsed
        elapsed = time.perf_counter() - start
        if self.first_values is None:
            self.first_values = outcome.values
            self.first_detail = outcome.detail
        repeated = outcome.values == self.first_values
        if not (outcome.ok and repeated):
            self.failed += 1
            print(f"FAILED {self.workload.name}: {outcome.detail}"
                  + ("" if repeated else "; values differ from first solve"),
                  file=sys.stderr)
        return elapsed


def _fresh_dir(name: str) -> Path:
    """The workload's output directory, emptied of the previous run's
    program outputs; result and span files of earlier seeds stay."""
    out = OUT / name
    shutil.rmtree(out / "run", ignore_errors=True)
    out.mkdir(parents=True, exist_ok=True)
    return out


def measure(workload, args, import_s: float) -> tuple[dict, Ledger, dict]:
    out = _fresh_dir(workload.name)
    imports = [import_s] + [_fresh_import_s()
                            for _ in range(SETUP_REPEATS - 1)]
    setups, state = [], None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = workload.setup(args.seed, out)
        setups.append(time.perf_counter() - start)
    ledger = Ledger(workload, state)
    ledger.solve(WORKERS)  # warm-up, checked but not timed
    times = []
    deadline = time.perf_counter() + args.seconds
    while len(times) < MIN_SOLVES or time.perf_counter() < deadline:
        times.append(ledger.solve(WORKERS))
    wall = statistics.median(times)
    metrics = {
        "wall_s": wall,
        "path_steps_per_s": workload.work / wall,
        "setup_s": statistics.median(imports) + statistics.median(setups),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {"solve_s": times, "import_s": imports, "setup_repeats_s": setups}
    return metrics, ledger, raw


def measure_traced(workload, args) -> tuple[dict, Ledger, dict]:
    from tracer import Tracer, median_of

    out = _fresh_dir(workload.name)
    tracer = Tracer()
    state = None
    with tracer.patched():
        for _ in range(SETUP_REPEATS):
            with tracer.root("bench.setup"):
                state = workload.setup(args.seed, out, tracer)
    ledger = Ledger(workload, state)
    ledger.solve(WORKERS)  # warm-up, checked but not timed
    plain, serial = [], []
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        plain.append(ledger.solve(WORKERS))
        with tracer.patched(), tracer.root("bench.solve"):
            ledger.solve(WORKERS, tracer)
        if workload.uses_workers and WORKERS > 1:
            serial.append(ledger.solve(1))
        rounds += 1

    solves = tracer.per_root("bench.solve")
    setups = tracer.per_root("bench.setup")
    metrics = {name: median_of(solves, kind, span)
               for name, (span, kind) in LAYER_TIMES.items()}
    counts = [row["counts"] for row in solves]
    for name in LAYER_COUNTS:
        metrics[name] = counts[0].get(name, 0)
    if any(c != counts[0] for c in counts):
        ledger.failed += 1  # counts of identical solves must repeat
        print(f"FAILED {workload.name}: counts differ between traced solves",
              file=sys.stderr)
    metrics["fd.crank_nicolson.s"] = median_of(setups, "total",
                                               "fd.crank_nicolson")
    untraced = statistics.median(plain)
    traced = statistics.median(row["wall"] for row in solves)
    metrics["experiments.parallel_efficiency"] = (
        statistics.median(serial) / (WORKERS * untraced) if serial else 0.0)
    metrics["trace.wall_s"] = traced
    metrics["trace.remainder_s"] = median_of(solves, "self", "bench.solve")
    metrics["trace.overhead_frac"] = (traced - untraced) / untraced

    _print_accounting(workload.name, solves)
    tracer.write(out / f"spans-seed{args.seed}.json")
    raw = {"untraced_s": plain, "traced_s": [r["wall"] for r in solves],
           "workers1_s": serial, "counts": counts}
    return metrics, ledger, raw


def _print_accounting(name: str, solves: list[dict]) -> None:
    """Mean self time per span name over the traced solves; with the
    root's own self time (the remainder) they add up to the traced wall
    time, except where pool threads overlap."""
    n = len(solves)
    names = sorted({k for row in solves for k in row["self"]})
    per_name = {k: sum(row["self"].get(k, 0.0) for row in solves) / n
                for k in names}
    wall = sum(row["wall"] for row in solves) / n
    for k, v in sorted(per_name.items(), key=lambda kv: -kv[1]):
        print(f"{name:14s} self {k:36s} {v:10.4f} s {v / wall:7.1%}")
    total = sum(per_name.values())
    print(f"{name:14s} self total {total:.4f} s vs traced wall {wall:.4f} s "
          f"(excess from overlapping pool threads {total - wall:.4f} s)")


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric in LAYER_COUNTS:
        return "count"
    if metric.endswith(("_s", ".s")):
        return "s"
    return "ratio"


def run_one(args) -> int:
    import_s = _import_program()
    from machine import machine_facts
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    facts = machine_facts(WORKERS)
    if args.trace:
        metrics, ledger, raw = measure_traced(workload, args)
    else:
        metrics, ledger, raw = measure(workload, args, import_s)
    for name, value in metrics.items():
        print(f"{workload.name:14s} {name:40s} {value:14.6g} {unit_of(name)}")
    print(f"{workload.name:14s} {'failed_frac':40s} "
          f"{ledger.failed / ledger.attempted:14.6g} ratio "
          f"({ledger.failed} of {ledger.attempted} solves; "
          f"{ledger.first_detail})")
    print("machine " + json.dumps(facts))
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)}
                          for k, v in metrics.items()}}
    (OUT / workload.name / f"result-trace{args.trace}-seed{args.seed}.json"
     ).write_text(json.dumps({**result, "machine": facts, "raw": raw},
                             indent=1))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        if proc.returncode != 0 or not lines:
            print(f"bench: {name} exited with code {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
