import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedsurrogate.params import (
    ClientUpdate,
    LayerSchema,
    ParameterVector,
    SchemaError,
    compute_update,
    cosine_distance,
    pairwise_distance_matrix,
)


def schema_ab():
    return LayerSchema.from_lengths([("a", 2), ("b", 3)])


class TestLayerSchema:
    def test_slice_a(self):
        v = ParameterVector(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), schema_ab())
        assert v.layer("a").tolist() == [1.0, 2.0]

    def test_bounds_and_total(self):
        s = schema_ab()
        assert s.total_length == 5
        assert s.bounds("b") == (2, 5)

    def test_wrong_length_rejected(self):
        with pytest.raises((ValueError, SchemaError)):
            ParameterVector(np.zeros(4), schema_ab())

    def test_values_frozen(self):
        v = ParameterVector(np.zeros(5), schema_ab())
        with pytest.raises(ValueError):
            v.values[0] = 1.0


class TestCosine:
    def test_orthogonal(self):
        D = pairwise_distance_matrix([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert np.allclose(D, [[0.0, 1.0], [1.0, 0.0]])

    def test_hand_value(self):
        D = pairwise_distance_matrix([np.array([1.0, 0.0]), np.array([1.0, 1.0])])
        assert D[0, 1] == pytest.approx(1.0 - 1.0 / np.sqrt(2.0), abs=1e-5)

    def test_identical_vectors(self):
        vecs = [np.array([1.0, 2.0])] * 3
        assert np.allclose(pairwise_distance_matrix(vecs), 0.0)

    def test_euclidean_metric(self):
        D = pairwise_distance_matrix(
            [np.array([0.0, 0.0]), np.array([3.0, 4.0])], metric="euclidean"
        )
        assert D[0, 1] == pytest.approx(5.0)

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            pairwise_distance_matrix([np.zeros(2), np.ones(2)], metric="manhattan")

    @given(
        a=arrays(np.float64, 3, elements=st.floats(-10, 10)),
        b=arrays(np.float64, 3, elements=st.floats(-10, 10)),
        c=st.floats(0.01, 100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_range_symmetry_scale_invariance(self, a, b, c):
        assume(np.linalg.norm(a) > 0.1 and np.linalg.norm(b) > 0.1)
        d = cosine_distance(a, b)
        assert 0.0 - 1e-12 <= d <= 2.0 + 1e-12
        assert d == pytest.approx(cosine_distance(b, a), abs=1e-12)
        assert cosine_distance(a, c * b) == pytest.approx(d, abs=1e-9)


class TestComputeUpdate:
    def test_delta(self):
        s = LayerSchema.from_lengths([("a", 2)])
        theta_i = ParameterVector(np.array([3.0, 3.0]), s)
        theta_g = ParameterVector(np.array([1.0, 2.0]), s)
        u = compute_update(theta_i, theta_g, client_id=0, sample_count=5)
        assert u.delta.values.tolist() == [2.0, 1.0]

    def test_zero_delta(self):
        s = LayerSchema.from_lengths([("a", 2)])
        theta = ParameterVector(np.array([1.0, 2.0]), s)
        u = compute_update(theta, theta)
        assert np.all(u.delta.values == 0.0)

    def test_schema_mismatch(self):
        a = ParameterVector(np.zeros(2), LayerSchema.from_lengths([("a", 2)]))
        b = ParameterVector(np.zeros(3), LayerSchema.from_lengths([("a", 3)]))
        with pytest.raises((ValueError, SchemaError)):
            compute_update(a, b)

    def test_out_row_holds_the_delta_as_a_read_only_view(self):
        s = LayerSchema.from_lengths([("a", 2), ("b", 1)])
        theta_g = ParameterVector(np.array([1.0, 2.0, 0.5]), s)
        M = np.full((2, 3), np.nan)
        u = compute_update(ParameterVector(np.array([3.0, 3.0, 0.25]), s), theta_g, out=M[1])
        assert M[1].tolist() == [2.0, 1.0, -0.25] and np.isnan(M[0]).all()
        assert u.delta.values.base is M and np.shares_memory(u.delta.values, M[1])
        assert not u.delta.values.flags.writeable
        M.flags.writeable = False
        with pytest.raises(ValueError):
            u.delta.values.flags.writeable = True

    @pytest.mark.parametrize("bad", [
        np.zeros(2), np.zeros(3, dtype=np.float32), np.zeros((3, 2))[:, 0], np.zeros((1, 3)),
    ])
    def test_out_of_the_wrong_layout_is_rejected(self, bad):
        s = LayerSchema.from_lengths([("a", 3)])
        v = ParameterVector(np.zeros(3), s)
        with pytest.raises(ValueError):
            compute_update(v, v, out=bad)
        frozen = np.zeros(3)
        frozen.flags.writeable = False
        with pytest.raises(ValueError):
            compute_update(v, v, out=frozen)

    def test_nonpositive_count_rejected(self):
        s = LayerSchema.from_lengths([("a", 2)])
        v = ParameterVector(np.zeros(2), s)
        with pytest.raises(ValueError):
            ClientUpdate(0, v, v, 0)
