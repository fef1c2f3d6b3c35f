"""Triadic lattice geometry, coefficient-field storage, and random ensembles.

A coefficient field lives on the cube of side 3**m with one constant symmetric
positive-definite d-by-d matrix per unit cell.  Cubes are addressed by
(level, offset): side 3**level, lower corner at offset (componentwise a
multiple of 3**level).  All fields are immutable after construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import CapacityError, ParameterError

MAX_AMBIENT_LEVEL = 8

_ENSEMBLE_KINDS = ("constant", "laminate_1d", "two_phase_iid", "lognormal_iid", "explicit")

# Parameters accepted per ensemble kind (strict: anything else is rejected).
_KIND_PARAMS = {
    "constant": {"value"},
    "laminate_1d": {"prob_hi", "sigma_hi", "sigma_lo"},
    "two_phase_iid": {"prob_hi", "sigma_hi", "sigma_lo"},
    "lognormal_iid": {"log_mean", "log_sigma"},
    "explicit": {"cells"},
}


@dataclass(frozen=True)
class TriadicCube:
    """An axis-aligned cube of side 3**level anchored at its lower corner."""

    level: int
    offset: tuple[int, ...]

    def __post_init__(self):
        if self.level < 0:
            raise ParameterError(f"cube level must be >= 0, got {self.level}")
        object.__setattr__(self, "offset", tuple(int(c) for c in self.offset))
        side = 3 ** self.level
        for c in self.offset:
            if c < 0 or c % side != 0:
                raise ParameterError(
                    f"offset {self.offset} is not a nonnegative multiple of 3^{self.level}"
                )

    @property
    def dimension(self) -> int:
        return len(self.offset)

    @property
    def side(self) -> int:
        return 3 ** self.level

    @property
    def volume(self) -> int:
        return self.side ** self.dimension

    def contains(self, other: "TriadicCube") -> bool:
        if other.dimension != self.dimension:
            return False
        return all(
            o >= s and o + other.side <= s + self.side
            for o, s in zip(other.offset, self.offset)
        )


def root_cube(dimension: int, level: int) -> TriadicCube:
    return TriadicCube(level, (0,) * dimension)


def subcubes(ambient: TriadicCube, level: int) -> list[TriadicCube]:
    """Partition of `ambient` into its 3^(d*(L-level)) triadic subcubes.

    Offsets are returned in lexicographic order.
    """
    if level < 0 or level > ambient.level:
        raise ParameterError(
            f"subcube level {level} outside [0, {ambient.level}]"
        )
    side = 3 ** level
    counts = 3 ** (ambient.level - level)
    out = []
    for idx in itertools.product(range(counts), repeat=ambient.dimension):
        off = tuple(o + side * i for o, i in zip(ambient.offset, idx))
        out.append(TriadicCube(level, off))
    return out


@dataclass(frozen=True)
class SpdMatrix:
    """Dense symmetric positive-definite d-by-d matrix with eigenvalue queries."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ParameterError(f"matrix must be square, got shape {arr.shape}")
        scale = np.abs(arr).max()
        if scale == 0 or np.abs(arr - arr.T).max() > 1e-12 * scale:
            raise ParameterError("matrix is not symmetric to 1e-12 relative tolerance")
        arr = 0.5 * (arr + arr.T)
        if np.linalg.eigvalsh(arr)[0] <= 0:
            raise ParameterError("matrix is not positive definite")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]

    def spectral_norm(self) -> float:
        return float(np.linalg.eigvalsh(self.entries)[-1])

    def inverse(self) -> "SpdMatrix":
        return SpdMatrix(np.linalg.inv(self.entries))

    def to_list(self) -> list[float]:
        return [float(x) for x in self.entries.ravel()]


def check_spd_array(arr: np.ndarray) -> None:
    """Validate a stacked (..., d, d) array of SPD matrices."""
    scale = np.abs(arr).max(axis=(-2, -1))
    asym = np.abs(arr - np.swapaxes(arr, -2, -1)).max(axis=(-2, -1))
    if np.any(asym > 1e-12 * np.maximum(scale, 1e-300)):
        raise ParameterError("cell matrices are not symmetric")
    if np.any(np.linalg.eigvalsh(arr)[..., 0] <= 0):
        raise ParameterError("cell matrices are not positive definite")


@dataclass(frozen=True)
class EnsembleSpec:
    """Descriptor of a random (or deterministic) cell-matrix ensemble."""

    kind: str
    params: dict
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _ENSEMBLE_KINDS:
            raise ParameterError(f"unknown ensemble kind {self.kind!r}")
        allowed = _KIND_PARAMS[self.kind]
        extra = set(self.params) - allowed
        if extra:
            raise ParameterError(f"unknown parameters for {self.kind}: {sorted(extra)}")
        missing = allowed - set(self.params)
        if missing:
            raise ParameterError(f"missing parameters for {self.kind}: {sorted(missing)}")
        p = self.params
        if self.kind == "constant" and not p["value"] > 0:
            raise ParameterError("constant value must be positive")
        if self.kind in ("two_phase_iid", "laminate_1d"):
            if not (0.0 <= p["prob_hi"] <= 1.0):
                raise ParameterError("prob_hi must lie in [0, 1]")
            if not (0.0 < p["sigma_lo"] <= p["sigma_hi"]):
                raise ParameterError("need 0 < sigma_lo <= sigma_hi")
        if self.kind == "lognormal_iid" and p["log_sigma"] < 0:
            raise ParameterError("log_sigma must be nonnegative")
        object.__setattr__(self, "seed", int(self.seed))

    def with_seed(self, seed: int) -> "EnsembleSpec":
        return replace(self, seed=int(seed))

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params), "seed": self.seed}

    @staticmethod
    def from_json_dict(d: dict) -> "EnsembleSpec":
        extra = set(d) - {"kind", "params", "seed"}
        if extra:
            raise ParameterError(f"unknown ensemble keys: {sorted(extra)}")
        return EnsembleSpec(d["kind"], dict(d.get("params", {})), int(d.get("seed", 0)))


class CoefficientField:
    """Cell-wise constant SPD matrices on the cube of side 3**ambient_level.

    Immutable and holds no cache; memoized results live with the code that
    computes them."""

    def __init__(self, dimension, ambient_level, cells):
        if dimension not in (1, 2, 3):
            raise ParameterError(f"dimension must be 1, 2 or 3, got {dimension}")
        if not (0 <= ambient_level <= MAX_AMBIENT_LEVEL):
            raise CapacityError(
                f"ambient_level {ambient_level} outside [0, {MAX_AMBIENT_LEVEL}]"
            )
        n = 3 ** ambient_level
        cells = np.asarray(cells, dtype=float)
        expected = (n,) * dimension + (dimension, dimension)
        if cells.shape != expected:
            raise ParameterError(f"cells shape {cells.shape} != expected {expected}")
        check_spd_array(cells)
        cells = cells.copy()
        cells.setflags(write=False)
        self.dimension = dimension
        self.ambient_level = ambient_level
        self.cells = cells

    @property
    def side(self) -> int:
        return 3 ** self.ambient_level

    @property
    def cube(self) -> TriadicCube:
        return root_cube(self.dimension, self.ambient_level)

    def cell(self, coord) -> np.ndarray:
        coord = tuple(int(c) for c in coord)
        if len(coord) != self.dimension or any(
            c < 0 or c >= self.side for c in coord
        ):
            raise ParameterError(f"cell coordinate {coord} out of range")
        return self.cells[coord]

    def cells_in(self, cube: TriadicCube) -> np.ndarray:
        """View of the cell array restricted to `cube` (shape (side,)*d + (d, d))."""
        if not self.cube.contains(cube):
            raise ParameterError(f"cube {cube} not inside ambient {self.cube}")
        sl = tuple(slice(o, o + cube.side) for o in cube.offset)
        return self.cells[sl]


def _cell_rng(seed: int, coord: tuple[int, ...]) -> np.random.Generator:
    # Counter-based stream per cell: key = (seed, packed coordinate).  Packing
    # uses 16 bits per axis, enough for sides up to 3**8 = 6561.
    code = 0
    for c in coord:
        code = (code << 16) | int(c)
    key = np.array([np.uint64(seed & (2**64 - 1)), np.uint64(code)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _scalar_draw(spec: EnsembleSpec, seed: int, coord) -> float:
    rng = _cell_rng(seed, coord)
    p = spec.params
    if spec.kind in ("two_phase_iid", "laminate_1d"):
        return p["sigma_hi"] if rng.random() < p["prob_hi"] else p["sigma_lo"]
    if spec.kind == "lognormal_iid":
        return float(np.exp(p["log_mean"] + p["log_sigma"] * rng.standard_normal()))
    raise ParameterError(f"no scalar draw for kind {spec.kind}")


def generate(spec: EnsembleSpec, dimension: int, ambient_level: int) -> CoefficientField:
    """Generate the coefficient field for `spec` on the cube of side 3**ambient_level.

    Deterministic in (spec, dimension, ambient_level); each cell draws from an
    independent stream keyed by (seed, cell coordinate), so the restriction of
    a level-m field to the lower-corner level-n cube equals the level-n field.
    """
    if dimension not in (1, 2, 3):
        raise ParameterError(f"dimension must be 1, 2 or 3, got {dimension}")
    if not (0 <= ambient_level <= MAX_AMBIENT_LEVEL):
        raise CapacityError(
            f"ambient_level {ambient_level} outside [0, {MAX_AMBIENT_LEVEL}]"
        )
    n = 3 ** ambient_level
    eye = np.eye(dimension)
    shape = (n,) * dimension + (dimension, dimension)
    cells = np.empty(shape)

    if spec.kind == "constant":
        cells[...] = spec.params["value"] * eye
    elif spec.kind == "explicit":
        flat = np.array(spec.params["cells"], dtype=float)
        want = n ** dimension * dimension * dimension
        if flat.size != want:
            raise ParameterError(
                f"explicit cells carry {flat.size} floats, expected {want}"
            )
        cells[...] = flat.reshape(shape)
    elif spec.kind == "laminate_1d":
        # Cell matrices diag(alpha(x_0), 1, ..., 1); alpha drawn per slice.
        for x0 in range(n):
            alpha = _scalar_draw(spec, spec.seed, (x0,))
            mat = eye.copy()
            mat[0, 0] = alpha
            cells[x0, ...] = mat
    else:
        for coord in itertools.product(range(n), repeat=dimension):
            cells[coord] = _scalar_draw(spec, spec.seed, coord) * eye

    return CoefficientField(dimension, ambient_level, cells)


def dihedral_conjugate(field: CoefficientField, perm) -> CoefficientField:
    """Conjugate the field by an axis permutation: cells relocated and each
    cell matrix conjugated by the permutation matrix.  Applying the inverse
    permutation recovers the original bit-exactly.
    """
    perm = tuple(int(i) for i in perm)
    d = field.dimension
    if sorted(perm) != list(range(d)):
        raise ParameterError(f"{perm} is not a permutation of 0..{d - 1}")
    cells = field.cells.transpose(perm + (d, d + 1))
    idx = np.array(perm)
    cells = cells[..., idx, :][..., :, idx]
    return CoefficientField(d, field.ambient_level, cells)
