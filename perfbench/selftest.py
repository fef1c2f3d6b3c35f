"""Self-tests of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric of BENCHMARK.json is printed with its unit, that a
corrupted reference value fails the correctness gate, that the traced layer
self times add up to the traced wall time, and that the benchmark refuses to
run without the cgflow sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
import unittest
import unittest.mock

import run
import tracing
import workloads

sys.path.insert(0, run.SRC)

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)
TINY = {name: wl.tiny() for name, wl in workloads.WORKLOADS.items()}
BENCHMARK_WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_main(argv) -> tuple[int, dict]:
    """run.main on the tiny workloads; (exit code, final JSON line)."""
    saved = workloads.WORKLOADS
    workloads.WORKLOADS = TINY
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(argv)
    finally:
        workloads.WORKLOADS = saved
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


class WorkDir(unittest.TestCase):
    def setUp(self):
        self.workdir = self.enterContext(run.scratch_dir("selftest"))

    def iteration(self, workload, reference=None, tracer=None):
        """One iteration at the default seed, traced when given a tracer."""
        runner = run.Runner(workload, workloads.DEFAULT_SEED, self.workdir,
                            reference or {})
        _, commands = runner.prepare(0)
        with (tracing.installed(tracer) if tracer else contextlib.nullcontext()):
            wall, codes = runner.execute(commands, tracer)
        runner.check(0, commands, codes)
        return runner, commands, wall


class MetricsPrinted(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        wanted = {0: BENCHMARK["end_to_end"], 1: BENCHMARK["per_layer"]}
        for name in BENCHMARK_WORKLOADS:
            for trace, specs in wanted.items():
                with self.subTest(workload=name, trace=trace):
                    code, result = run_main(["--workload", name, "--seed", "2",
                                             "--seconds", "0.01",
                                             "--trace", str(trace)])
                    self.assertEqual(code, 0)
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, {m["name"]: m["unit"] for m in specs})


class CorrectnessGate(WorkDir):
    def test_reference_round_trip_and_corruption(self):
        wl = TINY["coarse_3d"]
        _, commands, _ = self.iteration(wl)
        with open(commands[0].output) as fh:
            doc = json.load(fh)
        reference = {"seed": workloads.DEFAULT_SEED, "iterations": {"0": [doc]}}
        runner, _, _ = self.iteration(wl, reference)
        self.assertEqual((runner.failed, runner.problems), (0, []))

        doc["pairs"][0]["a"][0] *= 1 + 1e-6
        runner, _, _ = self.iteration(wl, reference)
        self.assertEqual(runner.failed, 1)
        self.assertIn("reference", runner.problems[0])

    def test_invariants_catch_wrong_order(self):
        wl = TINY["coarse_3d"]
        _, commands, _ = self.iteration(wl)
        with open(commands[0].output) as fh:
            doc = json.load(fh)
        pair = doc["pairs"][0]
        pair["a"], pair["a_star"] = pair["a_star"], pair["a"]
        self.assertTrue(wl.invariants([doc], workloads.DEFAULT_SEED, 0))


class TracedSelfTimes(WorkDir):
    def test_layer_self_times_add_up_to_wall(self):
        for name in ("flow_2d", "coarse_3d", "multiscale_2d"):
            with self.subTest(workload=name):
                tracer = tracing.Tracer()
                runner, _, wall = self.iteration(TINY[name], tracer=tracer)
                self.assertEqual(runner.failed, 0)
                layer = tracing.layer_metrics(tracer)
                total = layer["cli.self_s"] + sum(
                    layer[k] for k in tracing.LAYER_SELF_TIMES)
                self.assertGreaterEqual(total, 0.95 * wall)
                self.assertLessEqual(total, wall)

    def test_unwrapped_work_lands_in_cli(self):
        # Work that no layer wrapper covers must show as cli self time, so
        # that trace.coverage (layers below cli over wall) drops.
        from cgflow import cli

        emit = cli._emit

        def slow_emit(*args):
            time.sleep(0.2)
            return emit(*args)

        tracer = tracing.Tracer()
        with unittest.mock.patch.object(cli, "_emit", slow_emit):
            _, _, wall = self.iteration(TINY["coarse_3d"], tracer=tracer)
        layer = tracing.layer_metrics(tracer)
        self.assertGreaterEqual(layer["cli.self_s"], 0.2)
        self.assertLess(sum(layer[k] for k in tracing.LAYER_SELF_TIMES),
                        wall - 0.2)

    def test_exact_work_counts(self):
        wl = TINY["flow_2d"]  # 2 samples, levels 0..2
        tracer = tracing.Tracer()
        self.iteration(wl, tracer=tracer)
        layer = tracing.layer_metrics(tracer)
        self.assertEqual(layer["grid.generate_calls"], wl.samples)
        self.assertEqual(layer["grid.cells"], wl.samples * 9 ** 2)
        self.assertEqual(layer["coarse.pair_calls"], wl.samples * (wl.level + 1))
        # Levels 1 and 2 solve d Dirichlet and d Neumann problems each.
        self.assertEqual(layer["solver.dirichlet_dense_calls"], wl.samples * 2 * 2)
        self.assertEqual(layer["solver.neumann_dense_calls"], wl.samples * 2 * 2)
        self.assertEqual((layer["flow.samples"], layer["flow.aborted"]),
                         (wl.samples, 0))

    def test_besov_blocks_are_counted(self):
        wl = TINY["multiscale_2d"]
        tracer = tracing.Tracer()
        self.iteration(wl, tracer=tracer)
        layer = tracing.layer_metrics(tracer)
        # At scale k the blocks of side 3^k sit on the 3^(k-1) offset grid:
        # 3^(m+1-k) - 2 positions per axis; p = 2 and p = 3 visit them all.
        m, d = wl.besov_level, wl.dimension
        per_call = sum((3 ** (m + 1 - k) - 2) ** d for k in range(m + 1))
        self.assertEqual(layer["multiscale.besov_blocks"], 2 * per_call)

    def test_wrappers_are_removed(self):
        from cgflow import cli, grid

        before = (cli.generate, grid.generate)
        with tracing.installed(tracing.Tracer()):
            self.assertIsNot(cli.generate, before[0])
        self.assertEqual((cli.generate, grid.generate), before)


class RefusesWithoutSources(WorkDir):
    def test_exits_nonzero_without_printing(self):
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), self.workdir)
        shutil.copytree(run.HERE, os.path.join(self.workdir, "perfbench"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "flow_2d",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=self.workdir, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
