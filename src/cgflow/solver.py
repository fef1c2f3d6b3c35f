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


def _restrict(A, keep: np.ndarray):
    """A[keep][:, keep] for a boolean node mask, read from A's CSR arrays in
    one pass: the kept entries in their order, the kept nodes renumbered
    consecutively."""
    sel = np.repeat(keep, np.diff(A.indptr)) & keep[A.indices]
    # Kept entries before each row's first entry.
    before = np.concatenate(([0], np.cumsum(sel)))[A.indptr]
    indptr = np.append(before[:-1][keep], before[-1])
    new = np.cumsum(keep) - 1
    m = indptr.size - 1
    return scipy.sparse.csr_array(
        (A.data[sel], new[A.indices[sel]], indptr), shape=(m, m)
    )


def banded_cost(d: int, level: int) -> int:
    """Cost m (b + 1)^2 of the banded Neumann solve of one level-`level`
    cube, the larger of its two solves: m = (s + 1)^d - 1 unknowns and
    half-bandwidth b = ((s + 1)^d - 1) / s for side s = 3^level."""
    side = 3 ** level
    m = (side + 1) ** d - 1
    return m * (m // side + 1) ** 2


def stack_level(d: int, level: int, top: int) -> int:
    """Level of the cubes whose level-`level` subcubes one block-diagonal
    solve stacks, among the subcubes of a level-`top` cube: the largest
    level up to `top` at which one cube's solves take the banded path, or
    `level` itself if its own cubes' do not.  A stack thus needs no more
    work or band memory than one direct solve the cap admits: its blocks'
    band is narrower than their parent's.  Read at call time."""
    cap = DEFAULT_SETTINGS.direct_cost_cap
    parent = level
    while parent < top and banded_cost(d, parent + 1) <= cap:
        parent += 1
    return parent


def _solve_spd(A, B, blocks: int = 1, singular: bool = False):
    """Solve A X = B for a CSR SPD matrix A, block diagonal with `blocks`
    equal diagonal blocks, and a block B with one right-hand side per column
    (a vector is one column); returns X and the worst block's and column's
    true relative residual, each block's relative to its own part of the
    right-hand side.

    With `singular`, each diagonal block of A is a Neumann stiffness matrix,
    semidefinite with the constants as kernel, and each block's part of each
    column of B sums to zero; the columns of X are the solutions of zero mean
    on every block.  Within `direct_cost_cap` one banded Cholesky solve
    covers all blocks and columns, with the upper band read from the CSR
    arrays and, when singular, the first node of every block pinned.  A
    stack above the cap is solved one block at a time.  A single block
    above it runs Jacobi-PCG column by column, restarted from its iterate up
    to PCG_RESTARTS times while the true residual misses `tolerance`; a
    column that still misses it raises ConvergenceError.  Zero columns give
    zero solutions.  The settings are read at call time."""
    settings = DEFAULT_SETTINGS
    n = A.shape[0]
    rhs = np.reshape(B, (n, -1))
    X = np.zeros(rhs.shape)
    bnorm = np.linalg.norm(rhs, axis=0)
    live = np.flatnonzero(bnorm)
    if live.size == 0:
        return X.reshape(np.shape(B)), 0.0
    size = n // blocks
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    offsets = A.indices - rows
    b = int(offsets.max())
    unknowns = n - blocks if singular else n
    if unknowns * (b + 1) ** 2 <= settings.direct_cost_cap:
        upper, load = offsets >= 0, rhs
        if singular:
            # Pinned nodes get zero rows and columns and a unit diagonal.
            pinned = np.zeros(n, dtype=bool)
            pinned[::size] = True
            upper &= ~(pinned[rows] | pinned[A.indices])
            load = np.where(pinned[:, None], 0.0, rhs)
        # Upper band storage band[b + i - j, j] = A[i, j], laid out column by
        # column (Fortran order) so that LAPACK factors it in place.
        band = np.bincount(
            A.indices[upper] * (b + 1) + b - offsets[upper],
            weights=A.data[upper], minlength=n * (b + 1),
        ).reshape(n, b + 1).T
        if singular:
            band[b, pinned] = 1.0
        # Node 0's pinned equation, x = 0, is left out of the call: for one
        # block it is the band and LAPACK call of the system without node 0.
        pin = 1 if singular else 0
        X[pin:] = scipy.linalg.solveh_banded(
            band[:, pin:], load[pin:], overwrite_ab=True, check_finite=False,
        )
        if singular:
            # Each block's column means summed as for a single column.
            X3 = X.reshape(blocks, size, -1)
            X3 -= np.ascontiguousarray(X3.transpose(0, 2, 1)).mean(axis=-1)[:, None]
        r = np.linalg.norm((A @ X - rhs).reshape(blocks, size, -1), axis=1)
        part = np.linalg.norm(rhs.reshape(blocks, size, -1), axis=1)
        res = np.divide(r, part, out=np.zeros(r.shape), where=part > 0)
    elif blocks > 1:
        res = np.zeros(blocks)
        for k in range(blocks):
            block = slice(k * size, (k + 1) * size)
            X[block], res[k] = _solve_spd(A[block, block], rhs[block],
                                          singular=singular)
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
    """Assembled energy form on one cube of a coefficient field, or on all
    level-`level` subcubes of the cube at once.

    Provides the stiffness matrix K with K[w, w] = sum over cells of
    int grad w . a_cell grad w, together with the quadratures needed for
    energies, mean gradients and mean fluxes.  Loads and solves also take a
    block with one column per slope, flux or set of boundary values.

    With `level` below the cube's level, the nodal functions are continuous
    on each subcube but not across subcube faces: K is block diagonal with
    one block per subcube, in subcubes() order, each block that subcube's
    own operator with its nodes numbered as there.  Solves act on every
    subcube at once, and the quadratures average over the whole cube.
    """

    def __init__(self, field: CoefficientField, cube: TriadicCube, level=None):
        if not field.cube.contains(cube):
            raise ParameterError(f"cube {cube} not inside field cube {field.cube}")
        if level is None:
            level = cube.level
        if not 0 <= level <= cube.level:
            raise ParameterError(f"subcube level {level} outside [0, {cube.level}]")
        d = field.dimension
        side = 3 ** level
        count = 3 ** (cube.level - level)  # subcubes per axis
        self.field = field
        self.cube = cube
        self.dimension = d
        self.side = side
        self.blocks = count ** d
        self.n_nodes = self.blocks * (side + 1) ** d
        self.volume = float(cube.volume)

        corners, G, avg_grad = _reference_grad_integrals(d)
        self._avg_grad = avg_grad

        # Cells grouped by subcube, each group in C order over its coords.
        grouped = field.cells_in(cube).reshape((count, side) * d + (d, d))
        axes = tuple(range(0, 2 * d, 2)) + tuple(range(1, 2 * d, 2))
        cells = grouped.transpose(axes + (2 * d, 2 * d + 1)).reshape(-1, d, d)
        self.cell_matrices = cells
        self.n_cells = cells.shape[0]

        # Global node index of each cell corner.
        cell_coords = np.stack(
            np.meshgrid(*[np.arange(side)] * d, indexing="ij"), axis=-1
        ).reshape(-1, d)
        strides = np.array([(side + 1) ** (d - 1 - a) for a in range(d)])
        corner_offsets = np.array(corners)  # (2^d, d)
        local_nodes = (cell_coords[:, None, :] + corner_offsets[None, :, :]) @ strides
        first = np.arange(self.blocks) * (side + 1) ** d
        # (n_cells, 2^d)
        self.cell_nodes = (first[:, None, None] + local_nodes).reshape(-1, len(corners))

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
        self.node_coords = np.tile(node_coords, (self.blocks, 1))
        self.boundary_mask = np.any(
            (self.node_coords == 0) | (self.node_coords == side), axis=1
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
        """Nodal values of l_p(x) = p . x in (sub)cube-local coordinates."""
        return self.node_coords @ np.asarray(p, dtype=float)

    def flux_load(self, q: np.ndarray) -> np.ndarray:
        """Load vector b_i = int q . grad phi_i over the cube (per subcube)."""
        q = np.asarray(q, dtype=float)
        per_corner = (self._avg_grad @ q).reshape(len(self._avg_grad), -1)
        cols = per_corner.shape[1]
        # Each node's contributions summed in cell order.
        index = self.cell_nodes[..., None] * cols + np.arange(cols)
        values = np.broadcast_to(per_corner, index.shape)
        b = np.bincount(index.ravel(), weights=values.ravel(),
                        minlength=self.n_nodes * cols)
        return b.reshape((self.n_nodes,) + q.shape[1:])

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
        w[ii], res = _solve_spd(_restrict(K, ~self.boundary_mask), -(K @ w)[ii],
                                self.blocks)
        return BlockSolution(self, w, res)

    def solve_dirichlet(self, p) -> BlockSolution:
        """Minimizer of the block energy over l_p + (zero boundary values)."""
        data = self.affine(p)[self.boundary_idx]
        return self.solve_dirichlet_data(data)

    def solve_neumann(self, q) -> BlockSolution:
        """Maximizer of (1/|cube|) int (q . grad w - 1/2 grad w . a grad w),
        gauge-fixed to zero mean on each subcube.  The attained maximum is
        energy(w)."""
        w, res = _solve_spd(self.stiffness, self.flux_load(q), self.blocks,
                            singular=True)
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
