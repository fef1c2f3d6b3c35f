import itertools
import math
import tracemalloc

import numpy as np
import pytest

from cgflow import (
    CoefficientField,
    EnsembleSpec,
    ParameterError,
    TriadicCube,
    dihedral_conjugate,
    generate,
    root_cube,
    subcubes,
)
from cgflow.errors import CapacityError
from cgflow.grid import check_spd_array


def test_cube_basic_properties():
    cube = TriadicCube(2, (9, 18))
    assert cube.side == 9
    assert cube.volume == 81
    assert cube.dimension == 2


def test_cube_offset_must_be_aligned():
    with pytest.raises(ParameterError):
        TriadicCube(1, (2,))
    with pytest.raises(ParameterError):
        TriadicCube(1, (-3,))
    with pytest.raises(ParameterError):
        TriadicCube(-1, (0,))


def test_subcubes_partition():
    ambient = root_cube(2, 2)
    subs = subcubes(ambient, 1)
    assert len(subs) == 9
    # Disjoint cover: every cell belongs to exactly one subcube.
    seen = set()
    for sub in subs:
        assert ambient.contains(sub)
        for i in range(sub.side):
            for j in range(sub.side):
                seen.add((sub.offset[0] + i, sub.offset[1] + j))
    assert len(seen) == 81


def test_subcubes_ordering_is_lexicographic():
    subs = subcubes(root_cube(2, 1), 0)
    offsets = [s.offset for s in subs]
    assert offsets == sorted(offsets)


def test_subcube_level_out_of_range():
    with pytest.raises(ParameterError):
        subcubes(root_cube(1, 1), 2)


def test_spd_matrix_validation():
    # A field's cells are checked on construction: finite, symmetric,
    # positive definite.
    def field(cell):
        return CoefficientField(2, 0, np.array(cell).reshape(1, 1, 2, 2))

    field([[2.0, 0.5], [0.5, 1.0]])
    for bad in ([[1.0, 0.3], [0.0, 1.0]],            # not symmetric
                [[1.0, 2.0], [2.0, 1.0]],            # indefinite
                [[1.0, 0.0], [0.0, math.nan]],
                [[math.inf, 0.0], [0.0, 1.0]]):
        with pytest.raises(ParameterError):
            field(bad)


def test_diagonal_stacks_are_checked_on_their_diagonal():
    # A stack without a nonzero off-diagonal entry is checked on its
    # diagonal only, with the same guarantees; one such entry anywhere
    # brings back the full check of every matrix.
    ok = np.tile(np.diag([2.0, 3.0]), (5, 1, 1))
    check_spd_array(ok)
    for bad, message in ((0.0, "positive definite"), (-1.0, "positive definite"),
                         (math.nan, "finite"), (math.inf, "finite")):
        cells = ok.copy()
        cells[3, 1, 1] = bad
        with pytest.raises(ParameterError, match=message):
            check_spd_array(cells)
    for i, j, bad, message in ((slice(None), slice(None), [[1.0, 2.0], [2.0, 1.0]],
                                "positive definite"),
                               (0, 1, 1e-3, "symmetric"),
                               (1, 0, math.nan, "finite")):
        cells = ok.copy()
        cells[2, i, j] = bad
        with pytest.raises(ParameterError, match=message):
            check_spd_array(cells)


def test_ensemble_spec_strict_params():
    EnsembleSpec("two_phase_iid", {"prob_hi": 0.5, "sigma_hi": 2.0, "sigma_lo": 0.5})
    with pytest.raises(ParameterError):
        EnsembleSpec("two_phase_iid", {"prob_hi": 0.5, "sigma_hi": 2.0})
    with pytest.raises(ParameterError):
        EnsembleSpec("two_phase_iid",
                     {"prob_hi": 0.5, "sigma_hi": 2.0, "sigma_lo": 0.5, "x": 1})
    with pytest.raises(ParameterError):
        EnsembleSpec("nonsense", {})
    with pytest.raises(ParameterError):
        EnsembleSpec("two_phase_iid",
                     {"prob_hi": 1.5, "sigma_hi": 2.0, "sigma_lo": 0.5})


def test_ensemble_spec_roundtrip():
    spec = EnsembleSpec("lognormal_iid", {"log_mean": 0.1, "log_sigma": 0.4}, 9)
    again = EnsembleSpec.from_json_dict(spec.to_json_dict())
    assert again == spec


def test_generate_is_deterministic():
    spec = EnsembleSpec("two_phase_iid",
                        {"prob_hi": 0.5, "sigma_hi": 4.0, "sigma_lo": 0.25}, 17)
    f1 = generate(spec, 2, 2)
    f2 = generate(spec, 2, 2)
    assert np.array_equal(f1.cells, f2.cells)
    f3 = generate(spec.with_seed(18), 2, 2)
    assert not np.array_equal(f1.cells, f3.cells)


def test_generate_extension_consistency():
    # The restriction of a bigger field to the lower-corner cube is the
    # smaller field: cell streams depend only on (seed, coordinate).
    spec = EnsembleSpec("lognormal_iid", {"log_mean": 0.0, "log_sigma": 1.0}, 5)
    small = generate(spec, 2, 1)
    big = generate(spec, 2, 2)
    np.testing.assert_array_equal(big.cells[:3, :3], small.cells)


def _philox_oracle(spec, coord):
    """A cell's value from its own numpy generator: one Philox stream per
    cell, keyed by (seed mod 2**64, coordinate packed at 16 bits per axis)."""
    code = 0
    for c in coord:
        code = (code << 16) | c
    key = np.array([spec.seed % 2 ** 64, code], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    p = spec.params
    if spec.kind == "lognormal_iid":
        return float(np.exp(p["log_mean"] + p["log_sigma"] * rng.standard_normal()))
    return p["sigma_hi"] if rng.random() < p["prob_hi"] else p["sigma_lo"]


_TWO_PHASE = {"prob_hi": 0.4, "sigma_hi": 5.0, "sigma_lo": 0.2}


@pytest.mark.parametrize("kind, params, d, level", [
    ("two_phase_iid", _TWO_PHASE, 1, 4),
    ("two_phase_iid", _TWO_PHASE, 2, 2),
    ("two_phase_iid", _TWO_PHASE, 3, 3),  # 19683 cells: more than one chunk
    ("laminate_1d", _TWO_PHASE, 2, 3),
    ("lognormal_iid", {"log_mean": 0.3, "log_sigma": 0.7}, 2, 2),
])
def test_cell_streams_match_numpy_philox(kind, params, d, level):
    coords = list(itertools.product(range(3 ** level), repeat=d))
    sample = coords[::max(1, len(coords) // 400)] + coords[-1:]
    for seed in (0, 17, 2 ** 63 + 5, 2 ** 64 - 1, -3):
        spec = EnsembleSpec(kind, params, seed)
        cells = generate(spec, d, level).cells
        for coord in sample:
            if kind == "laminate_1d":
                expected = np.eye(d)
                expected[0, 0] = _philox_oracle(spec, coord[:1])
            else:
                expected = _philox_oracle(spec, coord) * np.eye(d)
            assert cells[coord].tobytes() == expected.tobytes(), (seed, coord)


def test_generate_2d_level6_in_bounded_memory():
    # 531441 cells: the cell array and its validated copy take 17 MB each;
    # the random streams are drawn in fixed-size chunks.
    spec = EnsembleSpec("two_phase_iid", _TWO_PHASE, 3)
    tracemalloc.start()
    try:
        generate(spec, 2, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 60 * 2 ** 20


def test_generate_two_phase_values():
    spec = EnsembleSpec("two_phase_iid",
                        {"prob_hi": 0.3, "sigma_hi": 7.0, "sigma_lo": 0.2}, 1)
    f = generate(spec, 1, 2)
    diag = f.cells[:, 0, 0]
    assert set(np.unique(diag)) <= {0.2, 7.0}


def test_generate_laminate_structure():
    spec = EnsembleSpec("laminate_1d",
                        {"prob_hi": 0.5, "sigma_hi": 3.0, "sigma_lo": 0.5}, 2)
    f = generate(spec, 2, 1)
    for x0 in range(3):
        slab = f.cells[x0]
        # Constant within each slab, identity off the laminated axis.
        assert np.all(slab == slab[0])
        np.testing.assert_array_equal(slab[0][1:, 1:], np.eye(1))
        assert slab[0][0, 1] == 0.0


def test_ambient_level_cap():
    spec = EnsembleSpec("constant", {"value": 1.0})
    with pytest.raises(CapacityError):
        generate(spec, 1, 9)


def test_field_cells_in_view():
    spec = EnsembleSpec("lognormal_iid", {"log_mean": 0.0, "log_sigma": 0.5}, 3)
    f = generate(spec, 2, 2)
    sub = TriadicCube(1, (3, 6))
    view = f.cells_in(sub)
    assert view.shape == (3, 3, 2, 2)
    np.testing.assert_array_equal(view[0, 0], f.cells[3, 6])


def test_dihedral_conjugate_roundtrip():
    spec = EnsembleSpec("lognormal_iid", {"log_mean": 0.0, "log_sigma": 0.6}, 8)
    f = generate(spec, 2, 1)
    g = dihedral_conjugate(f, (1, 0))
    h = dihedral_conjugate(g, np.argsort((1, 0)))
    np.testing.assert_array_equal(h.cells, f.cells)
    assert not np.array_equal(g.cells, f.cells)


def test_signed_permutations_group_size(signed_permutations):
    for d in (1, 2, 3):
        mats = signed_permutations(d)
        assert len(mats) == 2 ** d * math.factorial(d)
        for r in mats:
            np.testing.assert_allclose(r @ r.T, np.eye(d), atol=1e-15)
