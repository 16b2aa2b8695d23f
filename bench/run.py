"""Benchmark of the mfa command line: regime maps, point certificates, trajectories.

Run from the repository root:

    python3 bench/run.py --workload map_sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload map_sweep --seed 1 --seconds 20 --trace 1

Each operation calls ``mfa.cli.main`` in this process, with stdout captured
or ``--output`` into a scratch directory, so interpreter start is paid once
and counted in ``setup_s``.  Operations run in whole rounds until
``--seconds`` have passed; outputs are checked against the oracles in
``oracles.py`` outside the timed region.  The last line of stdout is one
JSON object: correct, attempted, failed and the metrics (end-to-end ones
with ``--trace 0``, per-layer ones from a traced run with ``--trace 1``).
See README.md for the workloads, the metrics and the speed reference.
"""

import os

# One thread everywhere: numpy's BLAS pools must be pinned before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("map_sweep", "certify_points", "simulate_trajectories")
SETUP_STARTS = 7

# The processor's speed drifts by up to 2x over minutes on a shared host, so
# every duration is scaled to a nominal speed: a fixed reference loop runs
# next to the operations, and a duration measured while the loop took
# 2 * REF_NOMINAL_S is reported halved.  The loop is not program code, so a
# change to the program cannot move it.
REF_ITERATIONS = 5000
REF_NOMINAL_S = 8e-3
REF_EVERY_S = 0.25


def reference_loop():
    """Seconds taken by a fixed pure-Python workload: float math and number
    formatting, then small-object allocation and a sort, the two kinds of
    work in the program's inner loops.  The garbage collector is held off so
    that a collection of the program's objects does not land in the loop."""
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0.0
        for i in range(REF_ITERATIONS):
            acc += math.tanh(i * 1e-4)
            format(acc, ".17g")
        items = [(i * 0.5, str(i), [i]) for i in range(REF_ITERATIONS)]
        items.sort(key=lambda item: -item[0])
        return time.perf_counter() - start
    finally:
        gc.enable()


def _load_program():
    """Import the program from the checkout's source tree, not an installed copy."""
    if not os.path.isfile(os.path.join(ROOT, "src", "mfa", "cli.py")):
        raise SystemExit(f"error: no mfa source tree under {ROOT}/src")
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import mfa.cli
    return mfa.cli


def _call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


class Runner:
    """Runs operations, times them and tallies the outcome of their checks."""

    def __init__(self, cli, workloads):
        self.cli, self.wl = cli, workloads
        self.attempted = self.failed = 0
        self.errors = []
        self.trajectory = None
        self.bytes_written = 0
        self.references = []
        self._reference_at = -math.inf
        sim = sys.modules["mfa.sim"]

        def capture(*args, **kwargs):
            # Looked up at call time so a traced sim.integrate is the one called.
            self.trajectory = sim.integrate(*args, **kwargs)
            return self.trajectory
        if cli.integrate is sim.integrate:
            cli.integrate = capture

    def reference(self, due=True):
        """Latest reference-loop time, running the loop again when ``due`` or
        when REF_EVERY_S has passed since the last one."""
        if due or time.perf_counter() - self._reference_at >= REF_EVERY_S:
            self.references.append(reference_loop())
            self._reference_at = time.perf_counter()
        return self.references[-1]

    def op(self, op, check=True, sample=True):
        """Run one operation; return its scaled wall time in seconds.

        The scale is the mean reference-loop time around the operation: one
        run just before it and, for a long operation, one every REF_EVERY_S
        during it (from a timer signal, with the loop's own time taken off
        the operation's; skipped with ``sample=False`` so traced spans hold
        no loop time) and one just after it.
        """
        refs = [self.reference(due=False)]

        def sample_now(_signum, _frame):
            refs.append(reference_loop())
        self.trajectory = None
        signal.signal(signal.SIGALRM, sample_now)
        if sample:
            signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        start = time.perf_counter()
        try:
            rc, out, err = _call(self.cli, op.argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            elapsed = time.perf_counter() - start - sum(refs[1:])
        if elapsed >= REF_EVERY_S:
            refs.append(self.reference())
        ref = statistics.fmean(refs)
        self.bytes_written += len(out) + (os.path.getsize(op.output) if op.output else 0)
        if check:
            self._check(op, rc, out, err)
        return elapsed * REF_NOMINAL_S / ref

    def _check(self, op, rc, out, err):
        self.attempted += 1
        try:
            if rc != 0:
                raise self.wl.Mismatch(f"exit code {rc}: {err.strip()}")
            if not op.check(out, self.trajectory):
                self.failed += 1
        except Exception as exc:  # any check error marks the run incorrect
            msg = exc if isinstance(exc, self.wl.Mismatch) else traceback.format_exc()
            self.errors.append(f"{' '.join(op.argv)}: {msg}")


def _setup_seconds(args):
    """Median wall time of fresh interpreters that import mfa.cli and build
    the workload's inputs (not yet scaled)."""
    times = []
    for _ in range(SETUP_STARTS):
        workdir = tempfile.mkdtemp(dir=OUT_DIR)
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-only", workdir,
               "--workload", args.workload, "--seed", str(args.seed)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        times.append(time.perf_counter() - start)
        shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up failed: {proc.stderr.decode().strip()}")
    return statistics.median(times)


def _measure(runner, pool, seconds, tracer):
    """Run rounds from the pool until ``seconds`` have passed.

    Returns the units of work per scaled second of each round and the scaled
    time of each operation; with a tracer, every round runs a second time
    with tracing on, and the traced operation times come third.
    """
    rates, times, traced = [], [], []
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        ops = pool[i % len(pool)]
        scaled = [runner.op(op) for op in ops]
        rates.append(sum(op.units for op in ops) / sum(scaled))
        times.extend(scaled)
        if tracer is not None:
            tracer.install()
            try:
                traced.extend(runner.op(op, sample=False) for op in ops)
            finally:
                tracer.uninstall()
        i += 1
    return rates, times, traced


def _run_all(args):
    """Run every workload in a fresh process; print one result line each and
    then all results as one JSON object keyed by workload."""
    results, rc = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        rc = max(rc, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            return rc or 1
        results[name] = json.loads(lines[-1])
        print(f"{name}: {lines[-1]}")
    print(json.dumps(results))
    return rc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                        help="one workload, or all of them, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)

    cli = _load_program()
    import workloads as wl
    if args.setup_only:
        wl.build(args.workload, args.seed, args.setup_only)
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    runner = Runner(cli, wl)
    setup_s = _setup_seconds(args) if args.trace == 0 else None
    workdir = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        pool = wl.build(args.workload, args.seed, workdir)
        for op, check in wl.warmup(args.workload, pool):
            runner.op(op, check)
        runner.attempted = runner.failed = runner.bytes_written = 0
        tracer = None
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
        rates, times, traced = _measure(runner, pool, args.seconds, tracer)
        # Single set-up starts are too long apart to pair with a reference
        # sample, so set-up is scaled by the run's median speed.
        scale = REF_NOMINAL_S / statistics.median(runner.references)
        if tracer is None:
            metrics = {
                "work_per_s": (statistics.median(rates), "1/s"),
                "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
                "setup_s": (setup_s * scale, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
        else:
            from spans import LAYER_METRICS, layer_values
            # Untraced and traced passes write the same bytes.
            values = layer_values(tracer, len(traced), runner.bytes_written / 2, scale)
            values["trace.overhead_pct"] = 100.0 * (sum(traced) / sum(times) - 1.0)
            values["op_p90_ms"] = (statistics.quantiles(times, n=10)[-1] * 1e3
                                   if len(times) >= 40 else 0.0)
            metrics = {name: (values[name], unit) for name, unit in LAYER_METRICS.items()}
            tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in runner.errors[:20]:
        print(f"mismatch: {line}", file=sys.stderr)
    print(f"{args.workload}: {runner.attempted} operations, {runner.failed} failed "
          f"(known fault); unit of work: {wl.UNITS[args.workload]}; reference loop "
          f"median {statistics.median(runner.references) * 1e3:.3f} ms "
          f"(nominal {REF_NOMINAL_S * 1e3:g} ms)", file=sys.stderr)
    correct = not runner.errors
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
