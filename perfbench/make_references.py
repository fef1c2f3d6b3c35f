"""Regenerate the stored reference outputs of the default seed.

    python3 perfbench/make_references.py [workload ...]

Runs the first iterations of each named workload (all by default) at
workloads.DEFAULT_SEED and writes their output documents to
perfbench/references/<workload>.json.  Only regenerate them for a
deliberate, documented change of the program's numbers.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads

#: Iterations stored per reference; a run that goes on longer checks its
#: later iterations against the invariants only.
ITERATIONS = {"flow": 8, "coarse": 32, "multiscale": 4}


def main(names) -> int:
    sys.path.insert(0, run.SRC)
    with run.scratch_dir("ref") as workdir:
        for name in names or workloads.WORKLOADS:
            wl = workloads.WORKLOADS[name]
            runner = run.Runner(wl, workloads.DEFAULT_SEED, workdir, {})
            iterations = {}
            for i in range(ITERATIONS[wl.kind]):
                _, commands = runner.prepare(i)
                _, codes = runner.execute(commands)
                runner.check(i, commands, codes)
                if runner.failed:
                    print(f"{wl.name}: iteration {i} failed; references "
                          "not written", file=sys.stderr)
                    return 1
                docs = []
                for cmd in commands:
                    with open(cmd.output) as fh:
                        docs.append(json.load(fh))
                iterations[str(i)] = docs
            path = os.path.join(run.REFERENCES, f"{wl.name}.json")
            with open(path, "w") as fh:
                json.dump({"seed": workloads.DEFAULT_SEED,
                           "iterations": iterations}, fh, indent=1)
                fh.write("\n")
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
