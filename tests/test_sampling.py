import numpy as np

from entlap.matops import BipartiteDims

from _sampling import make_rng, random_density, random_mixture_density, random_pure_density


class TestGenerators:
    def test_reproducible_from_seed(self):
        a = random_density(make_rng(3), BipartiteDims(2, 3))
        b = random_density(make_rng(3), BipartiteDims(2, 3))
        np.testing.assert_array_equal(a.array, b.array)

    def test_generated_states_validate(self):
        rng = make_rng(5)
        for _ in range(50):
            random_density(rng, BipartiteDims(3, 3))
            random_pure_density(rng, BipartiteDims(2, 2))
            random_mixture_density(rng, BipartiteDims(2, 3))
