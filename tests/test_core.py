import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finite_diff import NonFiniteValue, finite_diff_grad
from polystep.core import sample_batch, stream


class TestStream:
    def test_reproducible(self):
        a = stream(7).standard_normal(16)
        b = stream(7).standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_run_index_gives_distinct_streams(self):
        a = stream(7, run_index=0).standard_normal(16)
        b = stream(7, run_index=1).standard_normal(16)
        assert not np.array_equal(a, b)

    def test_uses_philox(self):
        assert isinstance(stream(0).bit_generator, np.random.Philox)


class TestFiniteDiffGrad:
    def test_quadratic_gradient(self):
        rng = stream(2)
        A = rng.standard_normal((5, 5))
        H = A @ A.T + np.eye(5)
        x = rng.standard_normal(5)
        g = finite_diff_grad(lambda z: 0.5 * float(z @ H @ z), x, 1e-6)
        np.testing.assert_allclose(g, H @ x, rtol=1e-6, atol=1e-8)

    def test_rejects_nonpositive_h(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda z: 0.0, np.zeros(2), 0.0)

    def test_nonfinite_evaluation_raises(self):
        with pytest.raises(NonFiniteValue):
            finite_diff_grad(lambda z: float("nan"), np.zeros(1), 1e-6)


class TestSampleBatch:
    def test_without_replacement(self):
        rng = stream(3)
        for _ in range(50):
            S = sample_batch(rng, 10, 7)
            assert len(set(S.tolist())) == 7
            assert S.min() >= 0 and S.max() < 10

    def test_full_batch_is_permutation(self):
        S = sample_batch(stream(4), 6, 6)
        assert sorted(S.tolist()) == list(range(6))

    @pytest.mark.parametrize("n,B", [(5, 0), (5, 6), (0, 1)])
    def test_invalid_sizes(self, n, B):
        with pytest.raises(ValueError):
            sample_batch(stream(0), n, B)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 40), st.data())
    def test_uniform_support(self, n, data):
        B = data.draw(st.integers(1, n))
        S = sample_batch(stream(data.draw(st.integers(0, 1000))), n, B)
        assert S.shape == (B,)
        assert len(np.unique(S)) == B
