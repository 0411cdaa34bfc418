import numpy as np

from helpers import grover_rotation_probability, max_abs_minor, random_state, tv_distance


class TestHelpers:
    def test_tv_distance(self):
        assert tv_distance([1, 0], [0, 1]) == 1.0
        assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_rotation_probability_small_cases(self):
        assert abs(grover_rotation_probability(2, 1) - 1.0) < 1e-12
        assert abs(grover_rotation_probability(3, 2) - 0.9453125) < 1e-12

    def test_random_state_is_normalized(self):
        s = random_state(6, np.random.default_rng(3))
        assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12

    def test_max_abs_minor_small_cases(self):
        bell = np.eye(2) / np.sqrt(2)
        assert abs(max_abs_minor(bell) - 0.5) < 1e-12
        product = np.outer([1, 2, 3], [4j, 5, 6]) / 10
        assert max_abs_minor(product) < 1e-15
        assert max_abs_minor(product.T) < 1e-15
