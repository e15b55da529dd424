"""The vahlen benchmark: one workload, one seed, one closed-loop client.

Run from the repository root:

    python3 bench/run.py --workload verify-q --seed 1 --seconds 15 --trace 0

Each operation calls ``vahlen.cli.main`` in this process with stdout
captured, then checks the verdicts in its output.  Operations run one at a
time in whole cycles until their summed wall time reaches ``--seconds``
and their count the workload's ``min_ops``.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced runs of each operation and
reports the per-layer metrics of the traced ones, the tracing overhead,
and whether every layer the workload is meant to stress did any work.

The last line of stdout is the result object; the line before it is the
full report, with sample counts, percentiles and the environment stamp.
Traced runs also write their spans to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
TAIL_BEYOND = 10
# a rare case such as regular->boundary may need more ops than one run
COVERAGE_SECONDS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_up(name, seed):
    """Import vahlen afresh and generate the workload's inputs; returns the
    workload, the CLI module and the seconds it took."""
    for key in [k for k in sys.modules if k == "vahlen"
                or k.startswith("vahlen.")]:
        del sys.modules[key]
    t0 = time.perf_counter()
    cli = importlib.import_module("vahlen.cli")
    workload = workloads.build(name, seed)
    return workload, cli, time.perf_counter() - t0


def run_op(cli, argv):
    """One operation: exit code (or the exception raised) and its output.
    Like a fresh CLI process, it starts with no garbage left by the last."""
    gc.collect()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except (Exception, SystemExit) as exc:  # counted as a failed op
            rc = exc
        elapsed = time.perf_counter() - t0
    return rc, elapsed, out.getvalue()


def tail_percentile(workload):
    """The percentile with exactly ten samples beyond it at the workload's
    minimum op count, or the median if that is higher; a fixed percentile
    keeps runs of faster or slower code comparable."""
    return max(50, 100 * (1 - TAIL_BEYOND / workload.min_ops))


def percentile(samples, pct):
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    # rounding keeps float error in pct from moving the rank up by one
    rank = math.ceil(round(pct / 100 * len(ordered), 9))
    return ordered[max(rank, 1) - 1]


def environment(seed):
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "commit": git_commit(), "seed": seed}


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Loop:
    """Runs whole cycles of operations and gates every output."""

    def __init__(self, workload, cli):
        self.workload = workload
        self.cli = cli
        self.failures = []
        self.attempted = 0

    def op(self, i):
        rc, elapsed, out = run_op(self.cli, self.workload.argv(i))
        self.attempted += 1
        why = self.workload.check(i, rc, out)
        if why is not None:
            self.failures.append({"op": i, "why": why})
        return elapsed

    def plain(self, seconds):
        times = []
        i = 0
        while True:
            for _ in range(self.workload.cycle):
                times.append(self.op(i))
                i += 1
            if sum(times) >= seconds and i >= self.workload.min_ops:
                return times

    def traced(self, seconds, tracer, missing):
        """Each op twice, untraced and traced, alternating which goes
        first, for at least one cycle and ``seconds``; while ``missing(n)``
        names layers without work after n ops, it goes on for up to
        COVERAGE_SECONDS times as long.  Returns both time lists and n."""
        plain, traced = [], []
        i = 0
        while True:
            elapsed = sum(plain) + sum(traced)
            if i >= self.workload.cycle and elapsed >= seconds and (
                    elapsed >= COVERAGE_SECONDS * seconds or not missing(i)):
                return plain, traced, i
            for with_trace in ((False, True) if i % 2 else (True, False)):
                if not with_trace:
                    plain.append(self.op(i))
                    continue
                tracer.begin_op(i)
                tracer.install()
                try:
                    traced.append(self.op(i))
                finally:
                    tracer.uninstall()
                    tracer.end_op()
            i += 1


def metric(value, unit, **detail):
    return {"value": value, "unit": unit, **detail}


def end_to_end(times, setup_times, workload):
    pct = tail_percentile(workload)
    n = len(times)
    return {
        "setup_s": metric(statistics.median(setup_times), "s",
                          samples=len(setup_times)),
        "op_s.p50": metric(statistics.median(times), "s", samples=n),
        "op_s.tail": metric(percentile(times, pct), "s", percentile=pct,
                            samples=n),
        "ops_per_s": metric(n / sum(times), "1/s", samples=n),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def coverage(name, totals, workload, n):
    """Layers the workload is said to stress that recorded no work in its
    first n traced ops."""
    need = {
        "census-gf": [f"halfspace.mobius.{c}" for c in tracing.MOBIUS_CASES],
        "verify-q": ["linalg.solve_calls", "halfspace.mobius.rb"],
        "enumerate-gf3": ["groups.iso_calls"],
        "act-cold": ["groups.iso_calls"],
    }[name]
    missing = [key for key in need if not totals[key]]
    if name == "act-cold":
        kinds = {workload.boundary_input(i) for i in range(n)}
        missing += [f"{label} input point" for flag, label
                    in ((False, "regular"), (True, "boundary"))
                    if flag not in kinds]
    return missing


def per_layer(tracer, plain, traced):
    totals, ratios = tracer.totals()
    out = {key: metric(value / tracer.ops,
                       "s/op" if key.endswith(("_s", ".s")) else "count/op")
           for key, value in totals.items()}
    ratio_units = {"clifford.pair_reuse": "ratio",
                   "clifford.product_us": "us",
                   "clifford.inverse_solve_share": "ratio",
                   "matrices.exhaustive_matrices_per_s": "1/s",
                   "halfspace.mobius_us": "us",
                   "halfspace.census_pair_us": "us"}
    out.update({key: metric(value, ratio_units[key])
                for key, value in ratios.items()})
    untraced_p50 = statistics.median(plain)
    out["trace.overhead"] = metric(statistics.median(traced) / untraced_p50,
                                   "ratio", samples=len(traced))
    return out


def write_spans(args, tracer, report):
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    data = {"report": report, "summary": tracer.span_summary(),
            "spans_dropped": tracer.spans_dropped,
            "span_fields": ["id", "name", "start", "end", "parent", "op"],
            "spans": tracer.spans}
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path.relative_to(ROOT))


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "vahlen" / "__init__.py").is_file():
        print(f"error: no vahlen sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup_times = []
    for _ in range(SETUP_REPEATS):
        workload, cli, elapsed = set_up(args.workload, args.seed)
        setup_times.append(elapsed)
    loaded = Path(sys.modules["vahlen"].__file__).resolve()
    if SRC not in loaded.parents:
        print(f"error: vahlen was imported from {loaded}", file=sys.stderr)
        return 2

    loop = Loop(workload, cli)
    report = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "env": environment(args.seed)}
    missing = []
    if args.trace:
        tracer = tracing.Tracer()

        def uncovered(n):
            return coverage(args.workload, tracer.totals()[0], workload, n)

        plain, traced, n = loop.traced(args.seconds, tracer, uncovered)
        metrics = per_layer(tracer, plain, traced)
        missing = uncovered(n)
        report.update(untraced_op_s_p50=statistics.median(plain),
                      coverage_missing=missing,
                      tracer_missing_targets=tracer.missing)
    else:
        times = loop.plain(args.seconds)
        metrics = end_to_end(times, setup_times, workload)
        report.update(setup_samples=setup_times, op_samples=times)
    report.update(attempted=loop.attempted, failed=len(loop.failures),
                  fail_ratio=len(loop.failures) / loop.attempted,
                  failures=loop.failures[:10], metrics=metrics)
    if args.trace:
        report["spans_file"] = write_spans(args, tracer, report)
    print(json.dumps(report, sort_keys=True))
    if missing:
        # a layer that did no work would make its numbers vacuous
        print(f"error: no work recorded for {', '.join(missing)}",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not loop.failures, "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {key: {"value": m["value"], "unit": m["unit"]}
                    for key, m in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
