"""Benchmark for the cqg CLI sweeps.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: twisted-trace, haar-coassoc, export-reload, deep-fragment (see
perfbench/README.md for what each runs and why).  One process and one
thread drive ``cqg.cli.main(argv)`` in-process as a closed loop: each
operation starts after the previous one returns, with stdout and stderr
captured in memory.  A pass is one run of every operation of the workload;
passes repeat until ``--seconds`` have gone by, and never fewer than two,
so that every report can be compared byte for byte with the one before.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced ones and reports the per-layer metrics of the
traced passes (spans of the last one are written to
``.perfbench_trace/<workload>-seed<n>.jsonl``).  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15
# a fresh interpreter: import the package, then make the workload's plan
SETUP_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import cqg, cqg.cli, workloads; "
    "workloads.plan(sys.argv[3], int(sys.argv[4]), sys.argv[5])"
)
# metric names, units and bounds
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# a residual below machine epsilon reads as epsilon, so exact results have a finite margin
EPS = sys.float_info.epsilon


def setup_probe(workload: str, seed: int, work: Path) -> float:
    """Seconds for one fresh interpreter to import cqg and make the plan; waits for it to end."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH), workload, str(seed), str(work)],
        check=True,
    )
    return time.perf_counter() - start


class Runner:
    """Runs passes of one workload and checks every output."""

    def __init__(self, ops, cli) -> None:
        self.ops = ops
        self.cli = cli
        self.digests: list[str | None] = [None] * len(self.ops)
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.known_defects = 0
        self.defects_seen: set[str] = set()
        self.residual_ratio = 0.0  # worst residual / bound
        self.report_bytes = 0
        self.problems: list[str] = []

    def run_pass(self, tracer=None) -> tuple[float, float]:
        """One pass, timed as a whole; returns (wall seconds, CPU seconds).  Checks run after it."""
        outputs = []
        for op in self.ops:  # an export that writes nothing must not pass on the last pass's file
            if op.out is not None:
                op.out.unlink(missing_ok=True)
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu0, wall0 = time.process_time(), time.perf_counter()
        for index, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = index
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.cli.main(op.argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception:  # an abort without a report is a failed operation
                    code = None
                    err.write(traceback.format_exc())
            outputs.append((code, out.getvalue(), err.getvalue()))
        wall = time.perf_counter() - wall0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = time.process_time() - cpu0 + sum(
            getattr(after, f) - getattr(children, f) for f in ("ru_utime", "ru_stime")
        )
        self.passes += 1
        self.report_bytes = 0
        for index, (op, output) in enumerate(zip(self.ops, outputs)):
            self._check(index, op, *output)
        return wall, cpu

    def _check(self, index: int, op, code, stdout: str, stderr: str) -> None:
        self.attempted += 1
        problems: list[str] = []
        body = stdout.encode()
        if op.out is not None and op.out.exists():
            body += op.out.read_bytes()  # a missing file fails in parse_output
        self.report_bytes += len(body)
        if op.defect is not None and code == op.defect[0] and op.defect[1] in stderr:
            self.known_defects += 1
            self.defects_seen.add(op.defect[2])
            return
        if code != op.expect:
            last_line = stderr.strip().splitlines()[-1:] or [""]
            problems.append(f"exit {code}, expected {op.expect}: {last_line[0]}")
        else:
            try:
                report = workloads.parse_output(op, stdout)
                problems += op.check(report)
                for residual, bound in op.residuals(report):
                    self.residual_ratio = max(self.residual_ratio, residual / bound)
            except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
                problems.append(f"unreadable report: {exc!r}")
            digest = hashlib.sha256(body).hexdigest()
            if self.digests[index] is None:
                self.digests[index] = digest
            elif self.digests[index] != digest:
                problems.append("output differs from the previous pass")
        if problems:
            self.failed += 1
            self.problems += [f"{' '.join(op.argv)}: {p}" for p in problems]

    def residual_margin(self) -> float:
        """log10(bound / worst residual); a workload without residuals reads as one at epsilon."""
        return math.log10(1.0 / max(self.residual_ratio, EPS / workloads.TOL))


def summarize(name: str, unit: str, values: list[float]) -> None:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    print(f"  {name:<24} median {q2:.6g} {unit}  IQR {q1:.6g}..{q3:.6g}  "
          f"range {min(values):.6g}..{max(values):.6g}  n={len(values)}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cqg" / "__init__.py").is_file():
        print("perfbench: no cqg package under src/ next to perfbench/; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def run(args, work: Path) -> int:
    tracer = Tracer() if args.trace else None

    def probe() -> float:
        return setup_probe(args.workload, args.seed, work)

    # set-up is sampled a few times here and once after each of the next
    # passes, so that its median spans the run rather than one moment of it
    setup = [probe() for _ in range(3)] if tracer is None else []
    import cqg.cli

    if not Path(cqg.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported cqg from {cqg.cli.__file__}, not from src/", file=sys.stderr)
        return 2
    runner = Runner(workloads.plan(args.workload, args.seed, work), cqg.cli)

    walls, cpus, traced_walls, layers = [], [], [], []

    def untraced_pass() -> None:
        wall, cpu = runner.run_pass()
        walls.append(wall)
        cpus.append(cpu)
        if tracer is None and len(setup) < SETUP_REPEATS:
            setup.append(probe())

    def traced_pass() -> None:
        tracer.reset()
        tracer.install()
        try:
            traced_walls.append(runner.run_pass(tracer)[0])
        finally:
            tracer.uninstall()
        layers.append(tracer.pass_metrics())
        layers[-1]["cli.report_bytes"] = float(runner.report_bytes)

    # a pass starts while it is likely to end no later than half its length past the deadline
    start = time.perf_counter()
    deadline, last = start + args.seconds, 0.0
    while len(walls) < 2 or start + last / 2 < deadline:
        if tracer is None:
            untraced_pass()
        else:  # untraced/traced pairs in alternating order, so drift does not read as overhead
            order = (untraced_pass, traced_pass) if len(walls) % 2 == 0 else (traced_pass, untraced_pass)
            for step in order:
                step()
        last, start = time.perf_counter() - start, time.perf_counter()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while tracer is None and len(setup) < SETUP_REPEATS:
        setup.append(probe())
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(walls)} untraced passes of {len(runner.ops)} operations; python {platform.python_version()}, "
          f"numpy {np.__version__}, OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}, "
          f"{os.cpu_count()} CPUs", file=sys.stderr)
    summarize("wall_s", "s", walls)
    summarize("cpu_s", "s", cpus)
    if setup:
        summarize("setup_s", "s", setup)
    print(f"  fail_ratio {runner.failed}/{runner.attempted} = {runner.failed / runner.attempted:g}; "
          f"known-defect probes reproduced {runner.known_defects}", file=sys.stderr)
    for defect in sorted(runner.defects_seen):
        print(f"  known defect: {defect}", file=sys.stderr)
    for problem in runner.problems[:10]:
        print(f"  FAILED {problem}", file=sys.stderr)

    if tracer is None:
        declared = SPEC["end_to_end"]
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
            "residual_margin_log10": runner.residual_margin(),
        }
    else:
        summarize("traced wall_s", "s", traced_walls)
        tracer.write(ROOT / ".perfbench_trace" / f"{args.workload}-seed{args.seed}.jsonl")
        declared = SPEC["per_layer"]
        values = {m["name"]: statistics.median(layer.get(m["name"], 0.0) for layer in layers)
                  for m in declared}
        values["ops.known_defects"] = runner.known_defects / runner.passes
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
