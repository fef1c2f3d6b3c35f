import math

import numpy as np
import pytest

from cgflow import (
    CoefficientField,
    EnsembleSpec,
    ParameterError,
    SpdMatrix,
    TriadicCube,
    dihedral_conjugate,
    generate,
    root_cube,
    signed_permutations,
    subcubes,
)
from cgflow.errors import CapacityError


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
    SpdMatrix(np.array([[2.0, 0.5], [0.5, 1.0]]))
    with pytest.raises(ParameterError):
        SpdMatrix(np.array([[1.0, 0.3], [0.0, 1.0]]))  # not symmetric
    with pytest.raises(ParameterError):
        SpdMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite


def test_spd_matrix_queries():
    m = SpdMatrix(np.diag([1.0, 4.0]))
    assert m.min_eigenvalue() == pytest.approx(1.0)
    assert m.spectral_norm() == pytest.approx(4.0)
    np.testing.assert_allclose(m.inverse().entries, np.diag([1.0, 0.25]))


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
    assert f1.equals(f2)
    f3 = generate(spec.with_seed(18), 2, 2)
    assert not f1.equals(f3)


def test_generate_extension_consistency():
    # The restriction of a bigger field to the lower-corner cube is the
    # smaller field: cell streams depend only on (seed, coordinate).
    spec = EnsembleSpec("lognormal_iid", {"log_mean": 0.0, "log_sigma": 1.0}, 5)
    small = generate(spec, 2, 1)
    big = generate(spec, 2, 2)
    np.testing.assert_array_equal(big.cells[:3, :3], small.cells)


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
    np.testing.assert_array_equal(view[0, 0], f.cell((3, 6)))


def test_field_json_roundtrip_bit_exact():
    spec = EnsembleSpec("lognormal_iid", {"log_mean": 0.0, "log_sigma": 0.7}, 4)
    f = generate(spec, 2, 1)
    g = CoefficientField.from_json(f.to_json())
    assert f.equals(g)
    assert np.array_equal(f.cells, g.cells)


def test_dihedral_conjugate_roundtrip():
    spec = EnsembleSpec("lognormal_iid", {"log_mean": 0.0, "log_sigma": 0.6}, 8)
    f = generate(spec, 2, 1)
    g = dihedral_conjugate(f, (1, 0))
    h = dihedral_conjugate(g, np.argsort((1, 0)))
    np.testing.assert_array_equal(h.cells, f.cells)
    assert not np.array_equal(g.cells, f.cells)


def test_signed_permutations_group_size():
    for d in (1, 2, 3):
        mats = signed_permutations(d)
        assert len(mats) == 2 ** d * math.factorial(d)
        for r in mats:
            np.testing.assert_allclose(r @ r.T, np.eye(d), atol=1e-15)
