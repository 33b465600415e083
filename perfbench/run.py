"""Benchmark of `nonloc` on the closed-form symmetric solver, with the
numerical settings search beside it, and on LP classification of three-party
tables.

    python3 perfbench/run.py --workload symmetric-solve|lp-classify
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  A full report of the
run goes to `perfbench/out/`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_BAND_INPUTS = 20      # a median with at least ten samples beyond it
MIN_ROUNDS = 4            # timings of each input, of which the fastest counts
SETUP_SAMPLES = (3, 4)    # set-up probes before and after the timed rounds


def import_program():
    """Import `nonloc` from this checkout's src/ with BLAS on one thread;
    exit with an error if the checkout holds no program."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "nonloc", "__init__.py")):
        sys.exit(f"no program to measure: {os.path.join(SRC, 'nonloc')} is missing")
    sys.path.insert(0, SRC)
    import nonloc
    if not os.path.abspath(nonloc.__file__).startswith(SRC + os.sep):
        sys.exit(f"imported nonloc from {nonloc.__file__}, not from {SRC}")
    return nonloc


def setup_seconds(workload: str, count: int) -> list[float]:
    """Set-up time of `count` fresh processes: importing nonloc plus the
    workload's lazy set-up, each measured inside its own child."""
    probe = os.path.join(HERE, "setup_probe.py")
    samples = []
    for _ in range(count):
        done = subprocess.run([sys.executable, probe, workload], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            sys.exit(f"set-up probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.split()[-1]))
    return samples


class Pass:
    """Timings and outcomes of whole rounds over the operation list.

    Each input keeps its fastest completed time over the run.  The
    machine's speed swings by itself (see README.md), and the fastest of
    several timings of the same call is the figure those swings disturb
    least."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = self.failed = self.wrong = self.rounds = 0
        self.seconds = 0.0
        self.best_ms = [math.inf] * len(ops)
        self.problems: list[str] = []

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def band_ms(self, band: str | None) -> list[float]:
        """Fastest time of each input of a band that completed."""
        return [t for op, t in zip(self.ops, self.best_ms)
                if op.band == band and t < math.inf]

    def rated_ms(self) -> list[float]:
        """Fastest time of each input that counts in ops_per_s and completed."""
        return [t for op, t in zip(self.ops, self.best_ms) if op.rated and t < math.inf]

    def ops_per_s(self) -> float:
        """Completed inputs per second of their summed fastest times."""
        done = self.rated_ms()
        return len(done) / (sum(done) / 1e3)

    def kinds_ms(self) -> dict[str, float]:
        by_kind: dict[str, list[float]] = {}
        for op, t in zip(self.ops, self.best_ms):
            if t < math.inf:
                by_kind.setdefault(op.kind, []).append(t)
        return {k: statistics.median(v) for k, v in by_kind.items()}

    def note(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)
            print(text, file=sys.stderr)


def measure(ops, seconds: float, min_rounds: int, tracer=None) -> Pass:
    """Run whole rounds until `seconds` of operation time and `min_rounds`.

    Each round is pinned to the next CPU this process may use, so that every
    input is timed on each core: a core slowed by other work on the host
    then holds back only some of an input's timings."""
    res = Pass(ops)
    cpus = sorted(os.sched_getaffinity(0))
    try:
        while res.rounds < min_rounds or res.seconds < seconds:
            os.sched_setaffinity(0, {cpus[res.rounds % len(cpus)]})
            for i, op in enumerate(ops):
                _time_op(i, op, res, tracer)
            res.rounds += 1
    finally:
        os.sched_setaffinity(0, cpus)
    return res


def _time_op(i: int, op, res: Pass, tracer) -> None:
    """Time one call, check its output and record the outcome in `res`."""
    from workloads import Declined
    if tracer is not None:
        tracer.op = res.attempted
    t0 = time.perf_counter()
    try:
        out = op.run()
        err = None
    except Declined as exc:
        err = str(exc)
    except Exception as exc:  # a failed operation; the run goes on
        err = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    res.attempted += 1
    res.seconds += elapsed
    if err is None:
        problems = op.check(out)
        if problems:
            res.wrong += 1
            err = "wrong output: " + "; ".join(problems)
    if err is not None:
        res.failed += 1
        res.note(f"{op.kind} (op {res.attempted - 1}): {err}")
        if tracer is not None:
            tracer.failed_ops.add(res.attempted - 1)
        return
    res.best_ms[i] = min(res.best_ms[i], elapsed * 1e3)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("symmetric-solve", "lp-classify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    api = import_program()
    import tracing
    from workloads import WORKLOADS

    setup = setup_seconds(args.workload, SETUP_SAMPLES[0])
    workload = WORKLOADS[args.workload](api)
    tracer = tracing.Tracer() if args.trace else None
    skipped = tracer.install() if tracer else []
    workload.setup()
    if tracer:
        tracer.uninstall()

    startup = workload.startup_checks()
    for p in startup:
        print(f"start-up check: {p}", file=sys.stderr)
    ops = workload.build(args.seed)
    for band in workload.bands:
        inputs = sum(op.band == band for op in ops)
        if inputs < MIN_BAND_INPUTS:
            sys.exit(f"band {band} has {inputs} inputs, fewer than {MIN_BAND_INPUTS}")
    warm = measure(ops[:1], 0.0, 1)      # warm-up, not reported

    if tracer is None:
        passes = [measure(ops, args.seconds, MIN_ROUNDS)]
    else:
        plain = measure(ops, args.seconds / 2, MIN_ROUNDS // 2)
        tracer.install()
        traced = measure(ops, args.seconds / 2, MIN_ROUNDS // 2, tracer)
        tracer.uninstall()
        passes = [plain, traced]
    setup += setup_seconds(args.workload, SETUP_SAMPLES[1])

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = not startup and warm.wrong == 0 and all(p.wrong == 0 for p in passes)
    head = passes[0]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "bands": workload.bands,
        "band_samples": {b: len(head.band_ms(b)) for b in workload.bands},
        "rounds": [p.rounds for p in passes], "ops_per_round": len(ops),
        "kinds_ms_p50": head.kinds_ms(),
        "ops_per_s_wall": head.completed / head.seconds,
        "labels": _label_counts(ops), "setup_samples_s": setup,
        "startup_problems": startup,
        "problems": [q for p in [warm] + passes for q in p.problems],
        "skipped_wrap_points": skipped,
    }
    samples: dict[str, int] = {}
    if tracer is None:
        for band in workload.bands:
            if not head.band_ms(band):
                sys.exit(f"band {band} has no completed operation")
        samples = {"ops_per_s": len(head.rated_ms()),
                   "setup_s": len(setup),
                   "a.op_ms.p50": len(head.band_ms("a")),
                   "b.op_ms.p50": len(head.band_ms("b"))}
        metrics = {
            "ops_per_s": (head.ops_per_s(), "1/s"),
            "a.op_ms.p50": (statistics.median(head.band_ms("a")), "ms"),
            "b.op_ms.p50": (statistics.median(head.band_ms("b")), "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        plain_rate, traced_rate = plain.ops_per_s(), traced.ops_per_s()
        bands = {i: ops[i % len(ops)].band for i in range(traced.attempted)}
        metrics = tracing.layer_metrics(tracer, bands)
        metrics["trace.overhead_pct"] = ((plain_rate / traced_rate - 1) * 100, "%")
        report["ops_per_s_untraced"] = plain_rate
        report["ops_per_s_traced"] = traced_rate

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"attempted {attempted}, failed {failed}, rounds {report['rounds']}")
    for band, count in report["band_samples"].items():
        print(f"  band {band} ({workload.bands[band]}): {count} inputs, "
              f"fastest of {passes[0].rounds} rounds each")
    for name, (value, unit) in metrics.items():
        count = f"  ({samples[name]} samples)" if name in samples else ""
        print(f"  {name:36s} {value:14.6g} {unit}{count}")
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    with open(stem + ".json", "w") as fh:
        json.dump(report, fh, indent=1)
    if tracer is not None:
        tracer.dump(stem + ".spans.jsonl")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


def _label_counts(ops) -> dict:
    counts: dict = {}
    for op in ops:
        if op.label is not None:
            key = f"{op.kind}: {op.label}"
            counts[key] = counts.get(key, 0) + 1
    return counts


if __name__ == "__main__":
    sys.exit(main())
