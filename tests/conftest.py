"""Shared helpers for the test suite."""

import random

import pytest
from hypothesis import HealthCheck, settings

from gapmodel import pruefer

# exact-arithmetic strategies can be slow per example; disable the deadline
settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# the suite's settings with 20x the examples, for a deeper run of chosen
# tests: pytest --hypothesis-profile=thorough
settings.register_profile("thorough", settings.get_profile("suite"), max_examples=2000)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return random.Random(20260814)


@pytest.fixture
def cold_ck():
    """An empty Robin-constant cache, so a test sees and counts cold solves."""
    pruefer._robin_constant.cache_clear()


def random_valid_pair(rng, n, kappa_max=8.0):
    """A random (K, D) with K of either sign and K D^2 safely below pi^2."""
    D = rng.uniform(0.3, 3.0)
    hi = min(kappa_max, 9.0) / D**2
    K = rng.uniform(-hi, hi)
    return K, D
