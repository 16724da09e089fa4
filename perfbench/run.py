"""cltlab benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload clt-golden --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the package is imported from the
checkout's src/ directory. The workload's inputs come from --seed. The run
builds them, warms up, then times whole rounds of the workload's operations
until --seconds have passed, checking every output between rounds, outside
the round timer. The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 the run times an untraced pass and then a traced pass of the
same length, and the metrics are the per-layer ones, per round of the traced
pass. Lines before it give the environment and a summary.

Round times in the end-to-end metrics are scaled to a reference machine
speed. On a shared machine the same code runs up to 1.8 times slower for
tens of seconds at a time, so a fixed pure-Python probe is timed between
operations and every operation's time is multiplied by PROBE_REFERENCE_S
over the mean of the probes before and after it. The summary line keeps the
unscaled figures.
"""

from time import perf_counter

START = perf_counter()

import os  # noqa: E402

# One BLAS thread, so OpenBLAS's own pool plus the workload's threads stay
# within the machine's cores; set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
from tracing import BENCH  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# Fresh processes that repeat the set-up, besides this one, for the setup_s median.
SETUP_REPEATS = 2

# Duration the speed probe is scaled to: scaled seconds are seconds on a
# machine where probe() takes this long.
PROBE_REFERENCE_S = 0.015
PROBE_LOOPS = 100_000
# Operation time between two probes; short operations share a probe.
PROBE_EVERY_S = 0.5


def probe() -> float:
    """Seconds a fixed interpreter-bound loop takes now."""
    t0 = perf_counter()
    acc = 0
    for j in range(PROBE_LOOPS):
        acc = (acc * 31 + j) % 1_000_003
    return perf_counter() - t0


class Pass:
    """What one timed pass did."""

    def __init__(self) -> None:
        self.rounds: list = []
        self.scaled: list = []
        self.probes: list = []
        self.attempted = 0
        self.failed = 0
        self.items = 0
        self.errors: list = []
        self.digest = hashlib.sha256()
        self._pending: list = []

    def start_round(self) -> None:
        self.rounds.append(0.0)
        self.scaled.append(0.0)

    def add_op(self, seconds: float) -> None:
        self.rounds[-1] += seconds
        self._pending.append((len(self.rounds) - 1, seconds))

    def pending_s(self) -> float:
        return sum(seconds for _, seconds in self._pending)

    def take_probe(self) -> None:
        """Probe now and scale the operations timed since the last probe."""
        now = probe()
        if self._pending:
            factor = PROBE_REFERENCE_S / ((self.probes[-1] + now) / 2.0)
            for index, seconds in self._pending:
                self.scaled[index] += seconds * factor
            self._pending = []
        self.probes.append(now)


def run_pass(workload, seconds: float, first_round: int, tracer=None) -> Pass:
    """Whole rounds until `seconds` have passed; checks run between rounds, untimed."""
    done = Pass()
    start = perf_counter()
    done.take_probe()
    index = first_round
    while True:
        ops = workload.round(index)
        results = []
        done.start_round()
        for op in ops:
            t0 = perf_counter()
            try:
                if tracer is None:
                    results.append(op.call())
                else:
                    tracer.op += 1
                    results.append(tracer.call(BENCH, op.call))
            except Exception as exc:  # an operation that raises is counted as failed
                results.append(exc)
            done.add_op(perf_counter() - t0)
            if done.pending_s() >= PROBE_EVERY_S:
                done.take_probe()
        for op, out in zip(ops, results):
            done.attempted += 1
            if isinstance(out, Exception):
                error = f"raised {type(out).__name__}: {out}"
            else:
                done.items += op.items
                error = op.check(out)
                if index == 0:
                    done.digest.update(workload.fingerprint(out))
            if error is not None:
                done.failed += 1
                done.errors.append(f"round {index} {op.label}: {error}")
        index += 1
        if perf_counter() - start >= seconds:
            if done.pending_s():
                done.take_probe()
            return done


def environment(workload) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": workload.threads,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def setup_repeat(args) -> float:
    """Set-up time of one fresh process running the same workload and seed."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(
        argv + ["--tiny"] * args.tiny,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def quartiles(values: list) -> list:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def end_to_end(setup: list, timed: Pass, rss_mb: float) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(timed.scaled),
        "items_per_s": timed.items / sum(timed.scaled),
        "peak_rss_mb": rss_mb,
    }


def per_layer(tracer, untraced: Pass, traced: Pass, series) -> dict:
    """Per-layer metrics per round of the traced pass."""
    rows = tracer.rows()
    selfs = tracing.self_times(rows, tracer.names)
    counts = tracer.counts()
    rounds = len(traced.rounds)
    wall = sum(traced.rounds)
    values = {name: t / rounds for name, t in selfs.items() if name != BENCH}
    values.update({name: c / rounds for name, c in counts.items() if not name.startswith("_")})
    capacity = counts.get("_capacity_s", 0.0)
    values["montecarlo.parallel_eff"] = counts["montecarlo.chunk_busy_s"] / capacity if capacity else 0.0
    attributed = sum(t for name, t in selfs.items() if name != BENCH)
    values["trace.wall_s"] = wall / rounds
    values["trace.unattributed_s"] = (wall - attributed) / rounds
    values["trace.overhead_s"] = statistics.median(traced.scaled) - statistics.median(untraced.scaled)
    values["trace.spans"] = rows.shape[0] / rounds
    values["bounds.below_oracle"] = series.below / series.checked if series is not None and series.checked else 0.0
    return values


def write_spans(name: str, tracer) -> None:
    import numpy

    numpy.save(OUT / f"{name}.spans.npy", tracer.rows())
    with open(OUT / f"{name}.spans.json", "w", encoding="utf-8") as fh:
        json.dump({"columns": ["sid", "parent", "op", "name", "start", "end"], "names": tracer.names}, fh)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cltlab" / "__init__.py").is_file():
        print(f"error: no cltlab source tree under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import cltlab
    import workloads

    if Path(cltlab.__file__).resolve().parent != SRC / "cltlab":
        print(f"error: cltlab imported from {cltlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="run-") as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, tiny=args.tiny, workdir=workdir)
        workload.warm_up()
        setup_s = perf_counter() - START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, spec, workload, setup_s)


def measure(args, spec, workload, setup_s: float) -> int:
    if args.trace:
        untraced = run_pass(workload, args.seconds, 0)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            timed = run_pass(workload, args.seconds, len(untraced.rounds), tracer)
        finally:
            tracer.restore()
        passes = [untraced, timed]
    else:
        setup = [setup_s] + [setup_repeat(args) for _ in range(SETUP_REPEATS)]
        timed = run_pass(workload, args.seconds, 0)
        passes = [timed]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors]
    final = workload.final_check()
    if final is not None:
        failed += 1
        errors.append(f"final check: {final}")
    series = getattr(workload, "series", None)
    if args.trace:
        values = per_layer(tracer, untraced, timed, series)
        write_spans(args.workload, tracer)
        registered = spec["per_layer"]
    else:
        values = end_to_end(setup, timed, rss_mb)
        registered = spec["end_to_end"]
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": [len(p.rounds) for p in passes],
        "round_s_quartiles": quartiles(passes[0].rounds),
        "probe_s_quartiles": quartiles(passes[0].probes),
        "failed_frac": failed / attempted,
        workload.rate: passes[0].items / sum(passes[0].rounds),
        "digest": passes[0].digest.hexdigest()[:16],
    }
    if not args.trace:
        summary["setup_runs_s"] = setup
    if series is not None:
        summary["oracle_checked"] = series.checked
        summary["below_oracle"] = series.below
    print("# env " + json.dumps(environment(workload)))
    print("# summary " + json.dumps(summary))
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in registered}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
