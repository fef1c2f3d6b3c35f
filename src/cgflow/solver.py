"""Discrete variational block solver.

One multilinear (Q1) element per unit cell, exact quadrature for
cell-constant coefficients.  Affine functions are represented exactly, so
every constant-field identity of the coarse-graining calculus is exact up to
roundoff, and the discrete coarse-grained matrices are genuinely
sub/superadditive within the discrete theory.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import ConvergenceError, ParameterError, PreconditionError
from .grid import CoefficientField, TriadicCube


@dataclass(frozen=True)
class SolverSettings:
    """Linear-solver constants shared by every block solve; the program uses
    the one instance DEFAULT_SETTINGS.

    A system of m unknowns and half-bandwidth b (its largest col - row in
    node order) is solved by banded Cholesky while its cost m (b + 1)^2 stays
    at or below `direct_cost_cap`; its band takes (b + 1) m floats.  The cap
    of 5e9 puts every 2d cube up to level 5 (3.6e9) and every 3d cube up to
    level 2 on the banded path; 3d level 3 (1.45e10, a 143 MB band) stays on
    Jacobi-preconditioned CG, which runs to true relative residual
    `tolerance` within max_iter_factor * unknowns iterations per run."""

    tolerance: float = 1e-10
    max_iter_factor: int = 10
    direct_cost_cap: float = 5e9


DEFAULT_SETTINGS = SolverSettings()

#: Further PCG runs, each from the last iterate, for a column whose true
#: residual misses the tolerance after its first run.
PCG_RESTARTS = 3


def _solve_spd(A, B, singular: bool = False):
    """Solve A X = B for a CSR SPD matrix A and a block B with one
    right-hand side per column (a vector is one column); returns X and the
    worst column's true relative residual.

    With `singular`, A is a Neumann stiffness matrix, semidefinite with the
    constants as kernel, and each column of B sums to zero; the columns of X
    are the zero-mean solutions.  The upper band of A is read from its CSR
    arrays; within `direct_cost_cap` one banded Cholesky solve covers all
    columns, with node 0 pinned for the singular system (its row zeroed and
    its column dropped).  Above the cap, Jacobi-PCG runs column by column on
    the whole system, restarted from its iterate up to PCG_RESTARTS times
    while the true residual misses `tolerance`; a column that still misses
    it raises ConvergenceError.  Zero columns give zero solutions.  The
    settings are read at call time."""
    settings = DEFAULT_SETTINGS
    n = A.shape[0]
    rhs = np.reshape(B, (n, -1))
    X = np.zeros(rhs.shape)
    bnorm = np.linalg.norm(rhs, axis=0)
    live = np.flatnonzero(bnorm)
    if live.size == 0:
        return X.reshape(np.shape(B)), 0.0
    pin = 1 if singular else 0
    offsets = A.indices - np.repeat(np.arange(n), np.diff(A.indptr))
    b = int(offsets.max())
    if (n - pin) * (b + 1) ** 2 <= settings.direct_cost_cap:
        # Upper band storage band[b + i - j, j] = A[i, j], laid out column by
        # column (Fortran order) so that LAPACK factors it in place.
        upper = offsets >= 0
        band = np.bincount(
            A.indices[upper] * (b + 1) + b - offsets[upper],
            weights=A.data[upper], minlength=n * (b + 1),
        ).reshape(n, b + 1).T
        if singular:
            band[b - np.arange(b + 1), np.arange(b + 1)] = 0.0  # row 0
        X[pin:] = scipy.linalg.solveh_banded(
            band[:, pin:], rhs[pin:], overwrite_ab=True, check_finite=False
        )
        if singular:
            for column in X.T:  # each mean summed as for a single solve
                column -= column.mean()
        res = np.linalg.norm(A @ X - rhs, axis=0)[live] / bnorm[live]
    else:
        diag = A.diagonal()
        M = scipy.sparse.linalg.LinearOperator((n, n), matvec=lambda v: v / diag)
        res = np.empty(live.size)
        for k, j in enumerate(live):
            x = None
            for _ in range(1 + PCG_RESTARTS):
                x, info = scipy.sparse.linalg.cg(
                    A, rhs[:, j], x0=x, rtol=settings.tolerance, atol=0.0,
                    maxiter=settings.max_iter_factor * n, M=M,
                )
                if singular:
                    x -= x.mean()
                res[k] = np.linalg.norm(A @ x - rhs[:, j]) / bnorm[j]
                if info != 0 or res[k] <= settings.tolerance:
                    break
            if info != 0 or res[k] > settings.tolerance:
                raise ConvergenceError(
                    f"PCG missed tolerance {settings.tolerance:.0e} "
                    f"(info={info}, residual {res[k]:.3e})",
                    residual=float(res[k]),
                )
            X[:, j] = x
    return X.reshape(np.shape(B)), float(res.max())


@lru_cache(maxsize=None)
def _reference_grad_integrals(d: int):
    """G[a, b, i, j] = int_{[0,1]^d} d_a phi_i d_b phi_j for the 2^d Q1 basis
    functions; exact via 2-point Gauss per axis.  Also returns the corner
    tuple list and the cell-average gradient table g[i, a] = avg d_a phi_i."""
    corners = list(itertools.product((0, 1), repeat=d))
    nb = len(corners)
    gp = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
    gw = np.array([0.5, 0.5])
    pts = list(itertools.product(range(2), repeat=d))

    grads = np.zeros((len(pts), nb, d))
    weights = np.zeros(len(pts))
    for pi, pidx in enumerate(pts):
        x = np.array([gp[k] for k in pidx])
        weights[pi] = np.prod([gw[k] for k in pidx])
        for i, nu in enumerate(corners):
            for a in range(d):
                val = 2 * nu[a] - 1.0
                for b in range(d):
                    if b != a:
                        val *= nu[b] * x[b] + (1 - nu[b]) * (1 - x[b])
                grads[pi, i, a] = val

    G = np.einsum("p,pia,pjb->abij", weights, grads, grads)
    avg_grad = np.array(
        [[(2 * nu[a] - 1.0) / 2 ** (d - 1) for a in range(d)] for nu in corners]
    )
    return tuple(corners), G, avg_grad


class CubeOperator:
    """Assembled energy form on one cube of a coefficient field.

    Provides the stiffness matrix K with K[w, w] = sum over cells of
    int grad w . a_cell grad w, together with the quadratures needed for
    energies, mean gradients and mean fluxes.  Loads and solves also take a
    block with one column per slope, flux or set of boundary values.
    """

    def __init__(self, field: CoefficientField, cube: TriadicCube):
        if not field.cube.contains(cube):
            raise ParameterError(f"cube {cube} not inside field cube {field.cube}")
        d = field.dimension
        side = cube.side
        self.field = field
        self.cube = cube
        self.dimension = d
        self.side = side
        self.n_nodes = (side + 1) ** d
        self.volume = float(cube.volume)

        corners, G, avg_grad = _reference_grad_integrals(d)
        self._avg_grad = avg_grad

        cells = field.cells_in(cube).reshape(-1, d, d)  # C-order over coords
        self.cell_matrices = cells
        self.n_cells = cells.shape[0]

        # Global node index of each cell corner.
        cell_coords = np.stack(
            np.meshgrid(*[np.arange(side)] * d, indexing="ij"), axis=-1
        ).reshape(-1, d)
        strides = np.array([(side + 1) ** (d - 1 - a) for a in range(d)])
        corner_offsets = np.array(corners)  # (2^d, d)
        # (n_cells, 2^d)
        self.cell_nodes = (cell_coords[:, None, :] + corner_offsets[None, :, :]) @ strides

        ke = np.einsum("cab,abij->cij", cells, G)  # per-cell element matrices
        nb = len(corners)
        rows = np.repeat(self.cell_nodes, nb, axis=1).ravel()
        cols = np.tile(self.cell_nodes, (1, nb)).ravel()
        self.stiffness = scipy.sparse.csr_array(
            (ke.ravel(), (rows, cols)), shape=(self.n_nodes, self.n_nodes)
        )

        node_coords = np.stack(
            np.meshgrid(*[np.arange(side + 1)] * d, indexing="ij"), axis=-1
        ).reshape(-1, d)
        self.node_coords = node_coords
        self.boundary_mask = np.any(
            (node_coords == 0) | (node_coords == side), axis=1
        )
        self.interior_idx = np.flatnonzero(~self.boundary_mask)
        self.boundary_idx = np.flatnonzero(self.boundary_mask)

    # -- quadratures -----------------------------------------------------

    def energy(self, w: np.ndarray) -> float:
        """Volume-normalized energy (1/|cube|) int 1/2 grad w . a grad w."""
        return float(0.5 * w @ (self.stiffness @ w) / self.volume)

    def cell_gradients(self, w: np.ndarray) -> np.ndarray:
        """Per-cell average gradient, shape (n_cells, d); exact for Q1."""
        return w[self.cell_nodes] @ self._avg_grad

    def cell_fluxes(self, w: np.ndarray) -> np.ndarray:
        grads = self.cell_gradients(w)
        return np.einsum("cab,cb->ca", self.cell_matrices, grads)

    def mean_gradient(self, w: np.ndarray) -> np.ndarray:
        return self.cell_gradients(w).sum(axis=0) / self.volume

    def mean_flux(self, w: np.ndarray) -> np.ndarray:
        return self.cell_fluxes(w).sum(axis=0) / self.volume

    def affine(self, p: np.ndarray) -> np.ndarray:
        """Nodal values of l_p(x) = p . x in cube-local coordinates."""
        return self.node_coords @ np.asarray(p, dtype=float)

    def flux_load(self, q: np.ndarray) -> np.ndarray:
        """Load vector b_i = int q . grad phi_i over the cube."""
        q = np.asarray(q, dtype=float)
        per_corner = self._avg_grad @ q  # (2^d,) + q.shape[1:]
        b = np.zeros((self.n_nodes,) + q.shape[1:])
        # One value per index entry: ufunc.at misreads values it broadcasts.
        values = np.tile(per_corner, (self.n_cells,) + (1,) * (q.ndim - 1))
        np.add.at(b, self.cell_nodes.ravel(), values)
        return b

    def interior_residual(self, w: np.ndarray) -> float:
        """Relative residual of the harmonicity condition at interior nodes."""
        r = (self.stiffness @ w)[self.interior_idx]
        scale = np.abs(self.stiffness).max() * max(
            np.abs(w - w.mean()).max(), 1e-300
        )
        return float(np.linalg.norm(r) / (scale * max(len(r), 1) ** 0.5 + 1e-300))

    def require_harmonic(self, w: np.ndarray, tol: float = 1e-6) -> None:
        defect = self.interior_residual(w)
        if defect > tol:
            raise PreconditionError(
                f"function is not discrete a-harmonic (relative defect {defect:.3e})"
            )

    # -- linear solves ---------------------------------------------------

    def solve_dirichlet_data(self, boundary_values: np.ndarray) -> BlockSolution:
        """Energy minimizer among nodal functions with the given boundary values."""
        w = np.zeros((self.n_nodes,) + np.shape(boundary_values)[1:])
        w[self.boundary_idx] = boundary_values
        ii = self.interior_idx
        K = self.stiffness
        w[ii], res = _solve_spd(K[ii, :][:, ii], -(K @ w)[ii])
        return BlockSolution(self, w, res)

    def solve_dirichlet(self, p) -> BlockSolution:
        """Minimizer of the block energy over l_p + (zero boundary values)."""
        data = self.affine(p)[self.boundary_idx]
        return self.solve_dirichlet_data(data)

    def solve_neumann(self, q) -> BlockSolution:
        """Maximizer of (1/|cube|) int (q . grad w - 1/2 grad w . a grad w),
        gauge-fixed to zero mean.  The attained maximum is energy(w)."""
        w, res = _solve_spd(self.stiffness, self.flux_load(q), singular=True)
        return BlockSolution(self, w, res)


@dataclass
class BlockSolution:
    """Nodal potential on a cube (one per column for a block solve) with the
    worst relative residual of its solve; the volume-normalized energy data
    of a single potential are quadratures on demand."""

    operator: CubeOperator
    values: np.ndarray        # nodal vector(s), C-order over (side+1,)*d nodes
    residual: float

    @property
    def energy(self) -> float:
        """(1/|cube|) * int 1/2 grad w . a grad w."""
        return self.operator.energy(self.values)

    @property
    def mean_gradient(self) -> np.ndarray:
        return self.operator.mean_gradient(self.values)

    @property
    def mean_flux(self) -> np.ndarray:
        return self.operator.mean_flux(self.values)


def solve_v(field, cube, p, q) -> BlockSolution:
    """The combined maximizer: Dirichlet part with affine data l_{-p} plus the
    Neumann part with flux q.  Its volume-normalized energy equals J(cube, p, q)
    up to solver tolerance."""
    op = CubeOperator(field, cube)
    p = np.asarray(p, dtype=float)
    wd = op.solve_dirichlet(-p)
    wn = op.solve_neumann(q)
    return BlockSolution(op, wd.values + wn.values, max(wd.residual, wn.residual))


def harmonic_pool(field, cube, count, seed) -> list[np.ndarray]:
    """Seeded pool of discrete a-harmonic functions from random boundary data.
    The seed is taken mod 2**64, like the cell streams' (derived seeds such as
    seed + level may pass the top of the range)."""
    op = CubeOperator(field, cube)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed & (2 ** 64 - 1))))
    data = rng.standard_normal((count, len(op.boundary_idx)))
    return list(np.ascontiguousarray(op.solve_dirichlet_data(data.T).values.T))
