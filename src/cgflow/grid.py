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


def check_spd_array(arr: np.ndarray, what: str = "cell matrices") -> None:
    """Validate a stacked (..., d, d) array of SPD matrices: finite,
    symmetric to 1e-12 relative, positive definite."""
    if not np.isfinite(arr).all():
        raise ParameterError(f"{what} are not finite")
    scale = np.abs(arr).max(axis=(-2, -1))
    asym = np.abs(arr - np.swapaxes(arr, -2, -1)).max(axis=(-2, -1))
    if np.any(asym > 1e-12 * np.maximum(scale, 1e-300)):
        raise ParameterError(f"{what} are not symmetric")
    if np.any(np.linalg.eigvalsh(arr)[..., 0] <= 0):
        raise ParameterError(f"{what} are not positive definite")


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
        if self.kind == "explicit":
            try:
                kind = np.asarray(p["cells"]).dtype.kind
            except ValueError as exc:  # ragged nesting
                raise ParameterError(f"explicit cells must be numbers: {exc}") from exc
            if kind not in "iuf":
                raise ParameterError(f"explicit cells must be numbers, got {p['cells']!r}")
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


# Each cell draws from its own counter-based stream: the stream of
# np.random.Philox(key=(seed mod 2**64, code)), where code packs the cell
# coordinate at 16 bits per axis (enough for sides up to 3**8 = 6561).  A
# cell's value is its stream's first draw, so the restriction of a field to a
# lower-corner cube is the smaller field.  The two-phase and laminate draws are
# computed for a chunk of cells at once by the Philox4x64-10 rounds below
# (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011, with
# the Random123 constants numpy uses); all uint64 arithmetic stays on arrays,
# where it wraps silently.
_PHILOX_ROUNDS = 10
_PHILOX_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_U64_MASK = 2 ** 64 - 1
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
# Cells drawn at once: bounds the generation temporaries whatever the field size.
_CHUNK_CELLS = 2 ** 14


def _mulhilo(multiplier: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of multiplier * b (the 128-bit product),
    built from 32-bit halves."""
    a_lo = np.uint64(multiplier & 0xFFFFFFFF)
    a_hi = np.uint64(multiplier >> 32)
    b_lo = b & _LO32
    b_hi = b >> _S32
    ll = a_lo * b_lo
    lh = a_lo * b_hi
    hl = a_hi * b_lo
    mid = (ll >> _S32) + (lh & _LO32) + (hl & _LO32)
    hi = a_hi * b_hi + (lh >> _S32) + (hl >> _S32) + (mid >> _S32)
    return hi, (mid << _S32) | (ll & _LO32)


def _first_words(seed: int, codes: np.ndarray) -> np.ndarray:
    """The first 64-bit output of each stream Philox(key=(seed, code)): word 0
    of the block at counter (1, 0, 0, 0), since numpy increments the zero
    counter before computing its first block."""
    k0 = seed & _U64_MASK
    k1 = codes
    zeros = np.zeros_like(codes)
    c0, c1, c2, c3 = np.ones_like(codes), zeros, zeros, zeros
    for _ in range(_PHILOX_ROUNDS):
        hi0, lo0 = _mulhilo(_PHILOX_MULTIPLIERS[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_MULTIPLIERS[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ k1, lo0
        k0 = (k0 + _PHILOX_WEYL[0]) & _U64_MASK
        k1 = k1 + np.uint64(_PHILOX_WEYL[1])
    return c0


def _first_normals(seed: int, codes: np.ndarray) -> np.ndarray:
    """The first standard_normal() of each stream Philox(key=(seed, code)).

    numpy's ziggurat tables are not public, so one bit generator is reset to
    each stream in turn (counter 0, empty buffer) instead of constructing one
    per cell."""
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    key = [seed & _U64_MASK, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    out = np.empty(codes.shape)
    for i, code in enumerate(codes.tolist()):
        key[1] = code
        bitgen.state = state
        out[i] = rng.standard_normal()
    return out


def _cell_values(spec: EnsembleSpec, codes: np.ndarray) -> np.ndarray:
    """Each cell's scalar value, drawn from the stream of its packed code."""
    p = spec.params
    if spec.kind == "lognormal_iid":
        return np.exp(p["log_mean"] + p["log_sigma"] * _first_normals(spec.seed, codes))
    # Generator.random(): the top 53 bits of the first word, scaled by 2**-53.
    u = (_first_words(spec.seed, codes) >> np.uint64(11)) * 2.0 ** -53
    return np.where(u < p["prob_hi"], p["sigma_hi"], p["sigma_lo"])


def _cell_codes(start: int, stop: int, n: int, dimension: int) -> np.ndarray:
    """Packed coordinates of the cells with C-order flat indices [start, stop)."""
    flat = np.arange(start, stop, dtype=np.uint64)
    side = np.uint64(n)
    code = np.zeros_like(flat)
    for axis in range(dimension):
        code |= (flat % side) << np.uint64(16 * axis)
        flat //= side
    return code


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
        # Cell matrices diag(alpha(x_0), 1, ..., 1); alpha drawn per slice,
        # from the stream of the one-axis coordinate (x_0,).
        alpha = _cell_values(spec, np.arange(n, dtype=np.uint64))
        cells[...] = eye
        cells[..., 0, 0] = alpha.reshape((n,) + (1,) * (dimension - 1))
    else:
        flat_cells = cells.reshape(-1, dimension, dimension)
        for start in range(0, len(flat_cells), _CHUNK_CELLS):
            stop = min(start + _CHUNK_CELLS, len(flat_cells))
            values = _cell_values(spec, _cell_codes(start, stop, n, dimension))
            np.multiply(values[:, None, None], eye, out=flat_cells[start:stop])

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
