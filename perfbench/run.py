"""cgflow benchmark: drives the `cgflow` CLI in-process and prints metrics.

Run from the repository root:

    python3 perfbench/run.py --workload flow_2d --seed 1 --seconds 20 --trace 0

The package is imported from `src/` (as the tests do with PYTHONPATH=src);
nothing is installed and no bytecode is written into the tree.  Scratch
configs and outputs live under `.perfbench_work/` and are removed at exit.

With `--trace 0` the last stdout line carries the end-to-end metrics, with
`--trace 1` the per-layer metrics of a separate traced run.  Both are medians
over the iterations of the run.  The line before it records the environment
and the per-iteration figures.  Workloads, metrics and their bounds are listed
in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import statistics
import resource
import subprocess
import sys
import time
import traceback

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCES = os.path.join(HERE, "references")

import tracing  # noqa: E402
import workloads  # noqa: E402

#: Setup is measured this many times per run; the median is reported.
SETUP_REPEATS = 5
#: Thread-count variables recorded with each result; never set here.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
#: Iteration index of the warm-up, outside the range measured runs reach.
WARMUP_ITERATION = 10 ** 6


@contextlib.contextmanager
def scratch_dir(tag: str):
    """A fresh directory under .perfbench_work/, removed afterwards."""
    path = os.path.join(ROOT, ".perfbench_work", f"{tag}{os.getpid()}")
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            os.rmdir(os.path.dirname(path))


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def measure_setup(workdir: str, configs: list[str]) -> float:
    """Median time from process start through `import cgflow` and loading
    the workload's configs, in fresh interpreters."""
    code = ("import json, sys\nimport cgflow.cli\n"
            "for p in sys.argv[1:]:\n    json.load(open(p))\n")
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, *configs], env=env,
                       cwd=workdir, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Runner:
    """Runs iterations of one workload and applies the correctness gate."""

    def __init__(self, workload, seed: int, workdir: str, reference: dict):
        from cgflow import cli

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.reference = reference if seed == reference.get("seed") else {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def prepare(self, iteration: int):
        """Write the iteration's inputs; returns (directory, commands)."""
        # Each CLI invocation would normally start in a fresh process: drop
        # the previous iteration's garbage (fields and their cached operators
        # form reference cycles) so it inflates neither time nor memory.
        gc.collect()
        path = os.path.join(self.workdir, f"iter{iteration}")
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path, self.workload.commands(self.seed, iteration, path)

    def execute(self, commands, tracer=None) -> tuple[float, list[int]]:
        """Run the commands back to back; returns (wall seconds, exit codes)."""
        codes = []
        t0 = time.perf_counter()
        for cmd in commands:
            try:
                if tracer is None:
                    codes.append(self.cli.main(cmd.argv))
                else:
                    with tracer.span("cli.main"):
                        codes.append(self.cli.main(cmd.argv))
            except Exception:  # an uncaught error is a failed operation
                traceback.print_exc()
                codes.append(-1)
        return time.perf_counter() - t0, codes

    def check(self, iteration: int, commands, codes) -> int:
        """Gate one iteration's outputs; returns its completed operations:
        Monte Carlo samples for flow workloads, invocations otherwise."""
        wl = self.workload
        docs = []
        for cmd, code in zip(commands, codes):
            doc = None
            if code == 0:
                try:
                    with open(cmd.output) as fh:
                        doc = json.load(fh)
                except (OSError, ValueError) as exc:
                    self._fail(iteration, f"{cmd.argv[0]}: unreadable output: {exc}")
            else:
                self._fail(iteration, f"{cmd.argv[0]} exited with {code}")
            docs.append(doc)
        self.attempted += len(commands)
        done = len(commands)
        if wl.kind == "flow":
            aborted = (wl.samples if docs[0] is None
                       else int(docs[0]["aborted_samples"]))
            self.attempted += wl.samples
            self.failed += aborted
            done = wl.samples - aborted
        if any(doc is None for doc in docs):
            self.failed += sum(doc is None for doc in docs)
            return done
        bad = [] if all(map(workloads.finite, docs)) else ["non-finite output"]
        bad += wl.invariants(docs, self.seed, iteration)
        ref = self.reference.get("iterations", {}).get(str(iteration))
        if ref is not None:
            bad += workloads.compare_reference(docs, ref)
        for msg in bad:
            self._fail(iteration, msg)
        if bad:
            self.failed += len(commands)
        return done

    def warm_up(self):
        """One untimed iteration of the workload at a tiny size, so lazy
        imports and first-call set-up are done before measuring."""
        tiny = Runner(self.workload.tiny(), self.seed, self.workdir, {})
        _, commands = tiny.prepare(WARMUP_ITERATION)
        tiny.check(WARMUP_ITERATION, commands, tiny.execute(commands)[1])
        self.attempted += tiny.attempted
        self.failed += tiny.failed
        self.problems += tiny.problems

    def _fail(self, iteration: int, msg: str):
        line = f"{self.workload.name} seed {self.seed} iteration {iteration}: {msg}"
        self.problems.append(line)
        print(line, file=sys.stderr)

    def iterate(self, seconds: float, body):
        """Call body(i) -> wall seconds for i = 0, 1, ...  until the measured
        walls fill `seconds`; an iteration is started only if the median so
        far says it ends inside the window."""
        walls, i = [], 0
        while True:
            walls.append(body(i))
            i += 1
            if sum(walls) + statistics.median(walls) > seconds:
                return walls


def run_untraced(runner: Runner, seconds: float) -> dict:
    done = []

    def body(i):
        _, commands = runner.prepare(i)
        wall, codes = runner.execute(commands)
        done.append(runner.check(i, commands, codes))
        return wall

    walls = runner.iterate(seconds, body)
    # High-water mark of this process, which runs the workload in-process.
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ok = runner.attempted - runner.failed
    return {
        "metrics": {
            "wall_s": (statistics.median(walls), "s"),
            # A fixed number of operations per iteration over the median
            # wall: the reciprocal of wall_s scaled, not a separate timing.
            "samples_per_s": (statistics.mean(done) / statistics.median(walls),
                              "1/s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            "success_rate": (ok / runner.attempted, "fraction"),
        },
        "iteration_walls": walls,
    }


def run_traced(runner: Runner, seconds: float) -> dict:
    """Pairs of an untraced and a traced iteration on the same inputs, in
    alternating order; the difference of their medians is the overhead."""
    plain, traced, layers = [], [], []

    def body(i):
        total = 0.0
        for traced_run in ((False, True) if i % 2 == 0 else (True, False)):
            _, commands = runner.prepare(i)
            if traced_run:
                tracer = tracing.Tracer()
                with tracing.installed(tracer):
                    wall, codes = runner.execute(commands, tracer)
                traced.append(wall)
                layer = tracing.layer_metrics(tracer)
                layer["trace.coverage"] = sum(
                    layer[k] for k in tracing.LAYER_SELF_TIMES) / wall
                layer["trace.spans"] = len(tracer.spans)
                layers.append(layer)
            else:
                wall, codes = runner.execute(commands)
                plain.append(wall)
            runner.check(i, commands, codes)
            total += wall
        return total

    runner.iterate(seconds, body)
    units = dict(tracing.LAYER_METRICS, **{"trace.coverage": "fraction",
                                   "trace.spans": "count"})
    metrics = {k: (statistics.median(layer[k] for layer in layers), unit)
               for k, unit in units.items()}
    metrics["trace.wall_s"] = (statistics.median(traced), "s")
    metrics["trace.untraced_wall_s"] = (statistics.median(plain), "s")
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"][0]
                                   - metrics["trace.untraced_wall_s"][0], "s")
    return {"metrics": metrics, "iteration_walls": {"untraced": plain,
                                                    "traced": traced}}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cgflow", "__init__.py")):
        print(f"cgflow sources not found under {SRC}", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    if seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    with scratch_dir("run") as workdir:
        runner = Runner(workload, seed, workdir,
                        workloads.load_reference(REFERENCES, workload))
        metrics = {}
        if not args.trace:
            _, commands = runner.prepare(0)
            metrics["setup_s"] = (
                measure_setup(workdir, [c.argv[2] for c in commands]), "s")
        runner.warm_up()
        result = (run_traced if args.trace else run_untraced)(runner, args.seconds)
        metrics.update(result["metrics"])

    print(json.dumps({
        "environment": environment(),
        "workload": workload.name,
        "seed": seed,
        "trace": args.trace,
        "iteration_walls": result["iteration_walls"],
        "problems": runner.problems,
    }))
    print(json.dumps({
        "correct": runner.failed == 0 and not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
