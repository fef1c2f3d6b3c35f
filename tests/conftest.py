import itertools
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg.lapack
import scipy.sparse.linalg

from cgflow import solver


@pytest.fixture
def solver_settings(monkeypatch):
    """`solver_settings(**fields)` replaces the solver's settings record for
    the rest of one test and returns it, e.g. `direct_cost_cap=0` to force
    the CG path on a small cube.  Only this process sees the record: call the
    code in-process or with `--threads 1`."""

    def install(**fields):
        settings = solver.SolverSettings(**fields)
        monkeypatch.setattr(solver, "DEFAULT_SETTINGS", settings)
        return settings

    return install


@pytest.fixture
def banded_calls(monkeypatch):
    """A list that gains one entry per banded Cholesky factorization (one
    per banded solve, LAPACK's dpbtrf) made in this process for the rest of
    one test: the shape (b + 1, unknowns) of the band handed to LAPACK."""
    calls = []
    dpbtrf = scipy.linalg.lapack.dpbtrf

    def counted(band, *args, **kwargs):
        calls.append(np.shape(band))
        return dpbtrf(band, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf", counted)
    return calls


@pytest.fixture
def cg_runs(monkeypatch):
    """A list that gains one entry per scipy CG run made in this process
    for the rest of one test, with the preconditioner `M` it was given and
    the `iterations` it took (its callbacks)."""
    runs = []
    cg = scipy.sparse.linalg.cg

    def counted(A, b, *args, **kwargs):
        run = SimpleNamespace(M=kwargs.get("M"), iterations=0)
        runs.append(run)

        def callback(xk):
            run.iterations += 1

        return cg(A, b, *args, callback=callback, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "cg", counted)
    return runs


@pytest.fixture
def signed_permutations():
    """`signed_permutations(d)` lists all 2^d * d! signed permutation
    matrices: the symmetry group of the d-dimensional cube."""

    def group(d):
        out = []
        for perm in itertools.permutations(range(d)):
            for signs in itertools.product((1.0, -1.0), repeat=d):
                mat = np.zeros((d, d))
                for i, (p, s) in enumerate(zip(perm, signs)):
                    mat[p, i] = s
                out.append(mat)
        return out

    return group
