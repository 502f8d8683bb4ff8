"""Benchmark of the epschain pipeline: one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; epschain is imported from ``src/``.
The run builds the workload's inputs from the seed, then repeats whole
passes of the workload's operations until S seconds of passes are measured.
The first pass's outputs are checked against the benchmark's own
computations, and every later pass must reproduce them byte for byte.
End-to-end times are scaled to a reference speed of the machine, measured
by the fixed kernel in ``calibrate.py`` as the run goes.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` untraced and traced passes
alternate and it holds the per-layer metrics, and the spans are written to
``.bench_out/``.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import calibrate  # noqa: E402  (numpy must see the thread variables)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 9
CALIBRATE_EVERY = 0.4  # seconds of pass time between runs of the reference kernel
TAIL_LADDER = (0.999, 0.99, 0.9)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="DIR", default=None,
                    help="build the inputs in DIR, print the clock, and exit")
    return ap.parse_args(argv)


def import_program():
    src = ROOT / "src"
    if not (src / "epschain" / "__init__.py").is_file():
        sys.exit(f"bench/run.py: no epschain sources under {src}; run from a source checkout")
    sys.path[:0] = [str(src), str(HERE)]
    import workloads

    return workloads


def measure_setup(args) -> float:
    """Median time from a fresh process's start to its inputs being written,
    each scaled by the reference kernel run just before and just after it."""
    samples = []
    for k in range(SETUP_SAMPLES):
        workdir = OUT / f"setup-{os.getpid()}-{k}"
        try:
            before = calibrate.sample()
            t0 = time.perf_counter()
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                 "--seed", str(args.seed), "--setup-only", str(workdir)],
                capture_output=True, text=True, timeout=120, check=True)
            raw = float(done.stdout.split()[-1]) - t0
            after = calibrate.sample()
            samples.append(raw * calibrate.REFERENCE_S / ((before + after) / 2))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return statistics.median(samples)


class Timer:
    """Times a pass and each of its operations, optionally as traced operations.

    With ``calibrated`` set, the reference kernel (``calibrate.py``) runs at
    the start of the pass, after the first operation that ends at least
    CALIBRATE_EVERY seconds after the last run of it, and at the end of the
    pass.  The time between two runs of the kernel, and each operation in it,
    is scaled by REFERENCE_S over the mean of the two kernel times, so that a
    change of the machine's speed during the run cancels.  The kernel's own
    time is not counted.
    """

    def __init__(self, latencies: dict, tracer, calibrated: bool):
        self.latencies = latencies
        self.tracer = tracer
        self.calibrated = calibrated
        self.count = 0
        self.raw_s = 0.0
        self.pass_s = 0.0
        self._ops: list[tuple[str, float]] = []
        self.kernels = [calibrate.sample()] if calibrated else []
        self._t0 = time.perf_counter()

    def __call__(self, key, fn):
        t0 = time.perf_counter()
        out = fn() if self.tracer is None else self.tracer.operation(key, fn)
        t1 = time.perf_counter()
        if self.tracer is None:
            self._ops.append((key, t1 - t0))
        self.count += 1
        if self.calibrated and t1 - self._t0 >= CALIBRATE_EVERY:
            self._checkpoint()
        return out

    def _checkpoint(self) -> None:
        segment = time.perf_counter() - self._t0
        scale = 1.0
        if self.calibrated:
            self.kernels.append(calibrate.sample())
            scale = calibrate.REFERENCE_S / statistics.fmean(self.kernels[-2:])
        self.raw_s += segment
        self.pass_s += segment * scale
        for key, dt in self._ops:
            self.latencies.setdefault(key, []).append(dt * scale)
        self._ops = []
        self._t0 = time.perf_counter()

    def finish(self) -> None:
        """Close the pass: its last stretch is timed and scaled."""
        self._checkpoint()


def tail_latency(values: list[float]) -> float:
    """Value at the highest of p99.9/p99/p90 with at least ten values beyond it;
    the largest value when there are too few for any of them."""
    xs = sorted(values)
    n = len(xs)
    for q in TAIL_LADDER:
        rank = -(-int(q * 1000) * n // 1000)  # ceil(q * n), nearest-rank percentile
        if n - rank >= 10:
            return xs[rank - 1]
    return xs[-1]


def run(args, workloads) -> dict:
    from checks import CheckFailure

    setup_s = measure_setup(args) if args.trace == 0 else None
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            import epschain

        latencies: dict[str, list[float]] = {}
        walls, raw_walls, kernels, traced_walls, layer_runs = [], [], [], [], []
        attempted, failed = 0, 0
        correct, first = True, None
        measured = 0.0
        npass = 0
        while True:
            traced = tracer is not None and npass % 2 == 1
            gc.collect()
            if traced:
                tracer.install(epschain)
                since = tracer.mark()
            # a traced run compares raw pass times, traced and untraced
            timer = Timer(latencies, tracer if traced else None, calibrated=tracer is None)
            try:
                outputs = wl.run_pass(timer)
                timer.finish()
            finally:
                if traced:
                    tracer.uninstall()
            wall = timer.pass_s
            if traced:
                traced_walls.append(wall)
                layer_runs.append(tracer.layer_metrics(since))
            else:
                walls.append(wall)
                raw_walls.append(timer.raw_s)
                kernels.extend(timer.kernels)
            measured += timer.raw_s
            npass += 1
            attempted += timer.count
            failures = wl.failed(outputs)
            failed += len(failures)
            fp = wl.fingerprint(outputs)
            if first is None:
                # memory through set-up and one pass, before the checks allocate
                # anything; later passes would add allocator growth that depends
                # on how many passes fit in the run
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                first = fp
                for line in failures:
                    print(f"failed operation: {line}", file=sys.stderr)
                try:
                    wl.check(outputs)
                except CheckFailure as exc:
                    correct = False
                    print(f"check failed: {exc}", file=sys.stderr)
            elif fp != first:
                correct = False
                print(f"pass {npass} output differs from pass 1", file=sys.stderr)
            if measured >= args.seconds and (tracer is None or npass % 2 == 0):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = {}
        for name in layer_runs[0]:
            metrics[name] = {"value": statistics.median_low(r[name] for r in layer_runs),
                             "unit": _unit(name)}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced_walls) - statistics.median(walls), "unit": "s"}
        print(f"median pass: untraced {statistics.median(walls):.4f} s, "
              f"traced {statistics.median(traced_walls):.4f} s", file=sys.stderr)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        # an operation's latency is its mean over the passes: with the machine
        # switching speed between passes, a median of a few passes jumps with
        # the share of slow ones, while the mean follows it smoothly
        per_op = [statistics.fmean(v) for v in latencies.values()]
        print(f"median pass: {statistics.median(raw_walls):.4f} s as measured, "
              f"{statistics.median(walls):.4f} s scaled; reference kernel "
              f"{min(kernels):.4f}-{max(kernels):.4f} s, median {statistics.median(kernels):.4f} s",
              file=sys.stderr)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "query_p50_ms": {"value": 1000.0 * statistics.median(per_op), "unit": "ms"},
            "query_tail_ms": {"value": 1000.0 * tail_latency(per_op), "unit": "ms"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    print(f"{args.workload} seed {args.seed}: {npass} passes, {attempted} operations, "
          f"{failed} failed", file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("yield"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench/run.py: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    if args.setup_only:
        workdir = Path(args.setup_only)
        workdir.mkdir(parents=True, exist_ok=True)
        workloads.WORKLOADS[args.workload](args.seed, workdir)
        print(time.perf_counter())
        return 0
    result = run(args, workloads)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
