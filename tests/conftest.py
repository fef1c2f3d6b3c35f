import pytest

from cgflow import solver


@pytest.fixture
def solver_settings(monkeypatch):
    """`solver_settings(**fields)` replaces the solver's settings record for
    the rest of one test and returns it, e.g. to force the CG path on a small
    cube.  Only this process sees the record: call the code in-process or
    with `--threads 1`."""

    def install(**fields):
        settings = solver.SolverSettings(**fields)
        monkeypatch.setattr(solver, "DEFAULT_SETTINGS", settings)
        return settings

    return install
