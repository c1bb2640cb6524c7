"""Sampler argument checks: a request that admits only the zero sample
is refused before any draw, instead of redrawing forever."""

import random

import pytest

from rotnear.sampling import random_poly, random_ratfunc, random_skew, random_vector


class NoDraws:
    """An rng that fails the test if a sampler draws from it."""

    def randint(self, a, b):
        raise AssertionError("the sampler started drawing")


def test_skew_of_dimension_one_is_refused():
    with pytest.raises(ValueError):
        random_skew(NoDraws(), 1)


def test_skew_with_bound_zero_is_refused():
    with pytest.raises(ValueError):
        random_skew(NoDraws(), 3, bound=0)


def test_vector_with_bound_zero_is_refused():
    with pytest.raises(ValueError):
        random_vector(NoDraws(), 3, bound=0)


def test_nonzero_poly_with_bound_zero_is_refused():
    with pytest.raises(ValueError):
        random_poly(NoDraws(), 4, bound=0, nonzero=True)
    # the numerator may be zero, so it is drawn; the denominator is refused
    with pytest.raises(ValueError):
        random_ratfunc(random.Random(0), 4, bound=0)


def test_valid_requests_still_sample():
    rng = random.Random(3)
    assert any(x != 0 for x in random_skew(rng, 2, bound=1).entries())
    assert any(random_vector(rng, 1, bound=1))
    assert random_poly(rng, 0, bound=1, nonzero=True)
    assert not random_poly(rng, 3, bound=0)  # zero is allowed when not asked to avoid it
