"""Outside-in span tracing of the cgflow layers.

Spans are recorded by wrapping public functions of the package from the
benchmark's side; nothing inside `src/` changes.  The modules import the
functions they call by name (`from .grid import generate`), so each wrapper is
installed under that name in every module that uses it, and removed again when
the traced iteration ends.  Only the calling process is traced: work done in
`ProcessPoolExecutor` workers counts as self time of the parent's `flow.run`.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
import types
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded traced iteration."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), parent, attrs=dict(attrs))
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def count(self, key: str):
        """Add one to attribute `key` of the innermost open span."""
        if self._stack:
            attrs = self.spans[self._stack[-1]].attrs
            attrs[key] = attrs.get(key, 0) + 1

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children."""
        out = [sp.duration for sp in self.spans]
        for sp in self.spans:
            if sp.parent is not None:
                out[sp.parent] -= sp.duration
        return out

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.spans]
        for i, sp in enumerate(self.spans):
            if sp.parent is not None:
                kids[sp.parent].append(i)
        return kids


def _wrap(tracer: Tracer, fn, name: str, attrs=None, on_result=None):
    """`fn` inside a span; `attrs(args, kwargs)` and `on_result(result)` add
    span attributes before and after the call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name, **(attrs(args, kwargs) if attrs else {})) as sp:
            result = fn(*args, **kwargs)
            if on_result is not None:
                sp.attrs.update(on_result(result))
            return result

    return wrapper


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install the span wrappers into the cgflow modules for the duration of
    the block, then restore every original attribute."""
    import numpy
    import scipy.linalg
    import scipy.sparse.linalg

    from cgflow import cli, coarse, flow, grid, multiscale, solver

    patches = []

    def patch(owner, attr, wrapper):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    gen = _wrap(
        tracer, grid.generate, "grid.generate",
        attrs=lambda a, k: {"cells": 3 ** (_arg(a, k, 1, "dimension")
                                           * _arg(a, k, 2, "ambient_level"))},
    )
    for mod in (grid, cli, flow):
        patch(mod, "generate", gen)

    op_cls = solver.CubeOperator
    patch(op_cls, "__init__", _wrap(tracer, op_cls.__init__, "solver.assemble"))

    def tolerance(a, k):  # both methods take (self, data, settings)
        settings = _arg(a, k, 2, "settings", solver.DEFAULT_SETTINGS)
        return {"tolerance": settings.tolerance}

    def residual(solution):
        return {"residual": float(solution.residual)}

    patch(op_cls, "solve_dirichlet_data",
          _wrap(tracer, op_cls.solve_dirichlet_data, "solver.dirichlet",
                tolerance, residual))
    patch(op_cls, "solve_neumann",
          _wrap(tracer, op_cls.solve_neumann, "solver.neumann",
                tolerance, residual))

    # The linear-algebra backends the solver reaches through attribute
    # lookups on scipy; their spans tell dense from iterative solves.
    def unknowns(a, k):
        return {"unknowns": int(a[0].shape[0])}

    patch(scipy.linalg, "cho_factor",
          _wrap(tracer, scipy.linalg.cho_factor, "solver.backend_dense", unknowns))
    patch(scipy.linalg, "cho_solve",
          _wrap(tracer, scipy.linalg.cho_solve, "solver.backend_dense"))
    patch(scipy.sparse.linalg, "cg",
          _wrap(tracer, scipy.sparse.linalg.cg, "solver.backend_cg", unknowns))

    pair = _wrap(tracer, coarse.coarse_pair, "coarse.pair",
                 attrs=lambda a, k: {"level": _arg(a, k, 1, "cube").level})
    for mod in (coarse, cli, multiscale, flow):
        patch(mod, "coarse_pair", pair)

    patch(multiscale, "ladder", _wrap(tracer, multiscale.ladder, "multiscale.ladder"))
    patch(multiscale, "besov_positive",
          _wrap(tracer, multiscale.besov_positive, "multiscale.besov_positive"))
    # besov_positive gathers each offset block with one `np.ix_` call.  The
    # module sees a copy of numpy whose `ix_` also counts the call, so the
    # blocks are those the program visits, not a formula of the grid size.
    counted_np = types.ModuleType("numpy")
    counted_np.__dict__.update(numpy.__dict__)

    def ix_(*args):
        tracer.count("blocks")
        return numpy.ix_(*args)

    counted_np.ix_ = ix_
    patch(multiscale, "np", counted_np)

    def samples(record):
        return {"samples": record.samples, "aborted": record.aborted}

    patch(flow, "run_flow",
          _wrap(tracer, flow.run_flow, "flow.run", on_result=samples))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


#: Per-layer metrics derived from one traced iteration, with their units.
LAYER_METRICS = {
    "cli.self_s": "s",
    "grid.generate_s": "s",
    "grid.generate_calls": "count",
    "grid.cells": "count",
    "grid.cells_per_s": "1/s",
    "solver.self_s": "s",
    "solver.assemble_s": "s",
    "solver.assemble_calls": "count",
    "solver.dirichlet_dense_s": "s",
    "solver.dirichlet_dense_calls": "count",
    "solver.dirichlet_cg_s": "s",
    "solver.dirichlet_cg_calls": "count",
    "solver.neumann_dense_s": "s",
    "solver.neumann_dense_calls": "count",
    "solver.neumann_cg_s": "s",
    "solver.neumann_cg_calls": "count",
    "solver.unknowns": "count",
    "solver.residual_max": "ratio",
    "solver.tol_miss": "count",
    "coarse.pair_self_s": "s",
    "coarse.pair_calls": "count",
    "coarse.pair_hit": "count",
    "multiscale.ladder_self_s": "s",
    "multiscale.subcubes": "count",
    "multiscale.besov_positive_s": "s",
    "multiscale.besov_blocks": "count",
    "flow.self_s": "s",
    "flow.samples": "count",
    "flow.aborted": "count",
}

#: Self times of the layers below `cli`.  With `cli.self_s` they add up to
#: the traced wall time; whatever no wrapper covers lands in `cli.self_s`.
LAYER_SELF_TIMES = (
    "grid.generate_s", "solver.self_s", "coarse.pair_self_s",
    "multiscale.ladder_self_s", "multiscale.besov_positive_s", "flow.self_s",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Fold the spans of one traced iteration into LAYER_METRICS."""
    out = dict.fromkeys(LAYER_METRICS, 0.0)
    selfs = tracer.self_times()
    kids = tracer.children()
    spans = tracer.spans
    for i, sp in enumerate(spans):
        name, self_s, dur = sp.name, selfs[i], sp.duration
        if name.startswith("solver."):
            out["solver.self_s"] += self_s
        if name == "cli.main":
            out["cli.self_s"] += self_s
        elif name == "grid.generate":
            out["grid.generate_s"] += dur
            out["grid.generate_calls"] += 1
            out["grid.cells"] += sp.attrs["cells"]
        elif name == "solver.assemble":
            out["solver.assemble_s"] += dur
            out["solver.assemble_calls"] += 1
        elif name in ("solver.dirichlet", "solver.neumann"):
            cg = any(spans[c].name == "solver.backend_cg" for c in kids[i])
            key = f"{name}_{'cg' if cg else 'dense'}"
            out[key + "_s"] += dur
            out[key + "_calls"] += 1
            res = sp.attrs.get("residual", math.nan)
            out["solver.residual_max"] = max(out["solver.residual_max"], res)
            if res > sp.attrs["tolerance"]:
                out["solver.tol_miss"] += 1
        elif name.startswith("solver.backend_"):
            out["solver.unknowns"] += sp.attrs.get("unknowns", 0)
        elif name == "coarse.pair":
            out["coarse.pair_self_s"] += self_s
            out["coarse.pair_calls"] += 1
            solved = any(spans[c].name.startswith("solver.") for c in kids[i])
            if sp.attrs["level"] >= 1 and not solved:
                out["coarse.pair_hit"] += 1
            if sp.parent is not None and spans[sp.parent].name == "multiscale.ladder":
                out["multiscale.subcubes"] += 1
        elif name == "multiscale.ladder":
            out["multiscale.ladder_self_s"] += self_s
        elif name == "multiscale.besov_positive":
            out["multiscale.besov_positive_s"] += dur
            out["multiscale.besov_blocks"] += sp.attrs.get("blocks", 0)
        elif name == "flow.run":
            out["flow.self_s"] += self_s
            out["flow.samples"] += sp.attrs.get("samples", 0)
            out["flow.aborted"] += sp.attrs.get("aborted", 0)
    if out["grid.generate_s"] > 0:
        out["grid.cells_per_s"] = out["grid.cells"] / out["grid.generate_s"]
    return out
