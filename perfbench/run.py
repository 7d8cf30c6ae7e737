"""lotdist benchmark: one workload, end to end (--trace 0) or per layer (--trace 1).

    python3 perfbench/run.py --workload small-corpus --seed 1 --seconds 34 --trace 0

Run from the root of a source checkout; lotdist is imported from ``src/``.
One serial process.  Set-up imports lotdist, builds the workload's inputs
from the seed and warms up on inputs outside the timed set.  The timed pass
then repeats whole rounds of the workload's op list, clearing lotdist's
caches before each round, until another round would overrun ``--seconds``.
Every op is timed from outside the program.  After the pass, every distinct
output is checked by ``checks.py``; a program exception or a failed check
counts the op as failed.  The last line of standard output is one JSON
object: correct, attempted, failed and the metrics.  The exit code is 1 when
a check failed and 2 when lotdist cannot be imported from the checkout.

With --trace 1 the pass alternates untraced and traced rounds; the traced
ones record spans and counts per layer (``tracing.py``), and the spans of
every traced round are written to ``perfbench/out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 2            # extra set-ups in child processes, for setup_s


def import_lotdist():
    """lotdist from this checkout's src/, or exit 2 without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import lotdist
    except ImportError as exc:
        print(f"cannot import lotdist from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(lotdist.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"lotdist was imported from {lotdist.__file__}, not from {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return lotdist


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=34.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up only and print the set-up seconds")
    return ap.parse_args(argv)


class Bench:
    def __init__(self, lotdist, workloads, checks, tracing, name: str, seed: int):
        self.checks = checks
        self.items, warm = workloads.build(name, seed)
        self.caches = (lotdist.lotteries.maximal_lottery,
                       lotdist.elections.margin_matrix,
                       lotdist.elections._positions)
        modules = {mod.split(".")[-1]: sys.modules[mod]
                   for mod in list(sys.modules) if mod.split(".")[0] == "lotdist"}
        import scipy.optimize
        self.tracer = tracing.Tracer(modules, scipy.optimize)
        self.dependency_failed = workloads.DependencyFailed
        for item in warm:
            self.run_item(item)
        self.clear_caches()
        self.rounds: list[dict] = []

    def clear_caches(self) -> None:
        for cached in self.caches:
            cached.cache_clear()

    def run_item(self, item) -> tuple[dict, dict, dict]:
        """(results, op seconds, op errors) for one election's op list."""
        results, seconds, errors = {}, {}, {}
        for op in item.ops:
            start = time.perf_counter()
            try:
                results[op.name] = op.run(results)
            except self.dependency_failed as exc:
                errors[op.name] = f"skipped: {exc}"
            except Exception as exc:  # a program fault: count it, keep going
                errors[op.name] = f"{type(exc).__name__}: {exc}"
            seconds[op.name] = time.perf_counter() - start
        return results, seconds, errors

    def run_round(self, traced: bool) -> dict:
        self.clear_caches()
        if traced:
            self.tracer.reset()
            self.tracer.install()
        outputs, item_s = [], []
        start = time.perf_counter()
        try:
            for item in self.items:
                t0 = time.perf_counter()
                outputs.append(self.run_item(item))
                item_s.append(time.perf_counter() - t0)
        finally:
            wall = time.perf_counter() - start
            if traced:
                self.tracer.uninstall()
        record = {"traced": traced, "wall": wall, "item_s": item_s,
                  "outputs": outputs}
        if traced:
            record["layers"] = self.tracer.layer_totals()
            record["counts"] = dict(self.tracer.counts)
            record["spans"] = self.tracer.spans
        self.rounds.append(record)
        return record

    def timed_pass(self, seconds: float, trace: bool) -> None:
        """Whole rounds (untraced/traced pairs with tracing) until time is up."""
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            self.run_round(traced=False)
            if trace:
                self.run_round(traced=True)
            step = time.perf_counter() - t0
            if time.perf_counter() - start + step > seconds:
                return

    def check_outputs(self) -> tuple[int, int, int, list[str]]:
        """(attempted, failed, failed checks, messages) over every round;
        distinct outputs are checked once."""
        attempted = failed = bad_checks = 0
        messages: list[str] = []
        verdicts: dict[tuple, dict] = {}
        for record in self.rounds:
            for x, (item, (results, _, errors)) in enumerate(
                    zip(self.items, record["outputs"])):
                attempted += len(item.ops)
                failed += len(errors)
                for name, err in errors.items():
                    messages.append(f"{item.label}: {name}: {err}")
                key = (x, repr(results))
                if key not in verdicts:
                    verdicts[key] = self.check_item(item, results)
                for name, err in verdicts[key].items():
                    failed += 1
                    bad_checks += 1
                    messages.append(f"{item.label}: {name}: check failed: {err}")
        return attempted, failed, bad_checks, messages

    def check_item(self, item, results: dict) -> dict:
        bad = {}
        for op in item.ops:
            if op.name in results:
                try:
                    op.check(results)
                except self.checks.CheckFailed as exc:
                    bad[op.name] = str(exc)
                except Exception as exc:  # an output of unexpected form
                    bad[op.name] = f"{type(exc).__name__}: {exc}"
        return bad


def setup_probe_seconds(args) -> list[float]:
    """Set-up seconds of fresh child processes of this script."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=170, cwd=ROOT)
        if proc.returncode != 0:
            sys.exit(f"set-up probe failed:\n{proc.stderr}")
        out.append(float(proc.stdout.split()[-1]))
    return out


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(bench: Bench, setup_s: list[float], rss_mb: float) -> dict:
    """Times are per-op and per-election medians over the rounds, so a burst
    of load on the machine during one round does not move them."""
    rounds = bench.rounds
    item_s = [statistics.median(r["item_s"][x] for r in rounds)
              for x in range(len(bench.items))]
    kind_s = {"lottery": 0.0, "distortion": 0.0}
    for x, item in enumerate(bench.items):
        for op in item.ops:
            kind_s[op.kind] += statistics.median(r["outputs"][x][1][op.name]
                                                 for r in rounds)
    metrics = {
        "setup_s": metric(statistics.median(setup_s), "s"),
        "elections_per_s": metric(len(item_s) / sum(item_s), "1/s"),
        "election_ms_p50": metric(statistics.median(item_s) * 1000.0, "ms"),
        "lottery_s": metric(kind_s["lottery"], "s"),
        "distortion_s": metric(kind_s["distortion"], "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    samples = [s * 1000.0 for r in rounds for s in r["item_s"]]
    if len(samples) >= 100:
        p90 = statistics.quantiles(samples, n=10)[-1]
        print(f"election_ms_p90 {p90:.4f} ms over {len(samples)} election samples")
    return metrics


def per_layer(bench: Bench, trace_module) -> dict:
    traced = [r for r in bench.rounds if r["traced"]]
    plain = [r for r in bench.rounds if not r["traced"]]
    first = traced[0]
    for r in traced[1:]:
        if r["counts"] != first["counts"] or r["layers"]["calls"] != first["layers"]["calls"]:
            print("warning: per-layer counts differ between traced rounds",
                  file=sys.stderr)
    metrics = {}
    for layer, extra in trace_module.LAYER_COUNTS.items():
        metrics[f"{layer}.calls"] = metric(first["layers"]["calls"].get(layer, 0), "count")
        metrics[f"{layer}.self_s"] = metric(
            statistics.median(r["layers"]["self_s"].get(layer, 0.0) for r in traced), "s")
        for key in extra:
            metrics[f"{layer}.{key}"] = metric(first["counts"].get(f"{layer}.{key}", 0),
                                               "count")
    metrics["trace.overhead_s"] = metric(
        statistics.median(r["wall"] for r in traced)
        - statistics.median(r["wall"] for r in plain), "s")
    return metrics


def main(argv=None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    lotdist = import_lotdist()
    import checks
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    bench = Bench(lotdist, workloads, checks, tracing, args.workload, args.seed)
    setup = time.perf_counter() - start
    if args.setup_probe:
        print(setup)
        return 0
    setup_s = [setup] if args.trace else [setup] + setup_probe_seconds(args)

    bench.timed_pass(args.seconds, bool(args.trace))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        OUT.mkdir(exist_ok=True)
        tracing.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl",
                     [(x, r["spans"]) for x, r in enumerate(bench.rounds) if r["traced"]])

    attempted, failed, bad_checks, messages = bench.check_outputs()
    for line in messages:
        print(line, file=sys.stderr)
    correct = bad_checks == 0

    print(f"workload {args.workload} seed {args.seed}: {len(bench.rounds)} rounds of "
          f"{len(bench.items)} elections, {attempted} ops attempted, {failed} failed")
    metrics = per_layer(bench, tracing) if args.trace else end_to_end(bench, setup_s, rss_mb)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
