"""Seeded sample points with pinned coordinates, for the tests.

Each sampler draws from the package's seed derivation (``_child_rng``)
and compositions (``_composition``), so its points are as reproducible
as the verification grids; ``test_sampler_points_are_pinned`` pins them
by a digest.
"""

import itertools
import random
from fractions import Fraction
from typing import List

from simplexboundary.geometry import (
    DEFAULT_SEED,
    BaryPoint,
    _child_rng,
    _composition,
    center,
    project_layer,
)


def _pinned_samples(
    rng: random.Random, n: int, count: int, pins: int, value: Fraction
) -> List[BaryPoint]:
    """``count`` points, each with ``pins`` coordinates equal to ``value``;
    the pinned slots cycle through the ``pins``-subsets of 0..n in
    ``itertools.combinations`` order.

    For each point a seeded d in n+1..3000 is split into the free slots by
    a composition p; with value = a/q, a free slot gets (q - pins*a)*p_m
    and a pinned one a*d, all over d*q.
    """
    a, q = value.numerator, value.denominator
    scale = q - pins * a
    slot_sets = list(itertools.combinations(range(n + 1), pins))
    points = []
    for m in range(count):
        d = rng.randint(n + 1, 3_000)
        nums = [scale * p for p in _composition(rng, d, n + 1 - pins)]
        for slot in slot_sets[m % len(slot_sets)]:
            nums.insert(slot, a * d)
        points.append(BaryPoint(nums, d * q))
    return points


def boundary_samples(n: int, count: int, seed: int = DEFAULT_SEED) -> List[BaryPoint]:
    """Seeded points with at least one zero coordinate."""
    if n < 1:
        raise ValueError("the 0-simplex has no boundary")
    return _pinned_samples(_child_rng(seed, 3, n), n, count, 1, Fraction(0))


def cross_samples(n: int, alpha, count: int, seed: int = DEFAULT_SEED) -> List[BaryPoint]:
    """Seeded points carrying at least one coordinate exactly ``alpha``."""
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise ValueError(f"cross level {alpha} outside [0,1]")
    if n < 1:
        raise ValueError("cross sampling needs dimension >= 1")
    return _pinned_samples(_child_rng(seed, 4, n), n, count, 1, alpha)


def multi_zero_samples(n: int, count: int, seed: int = DEFAULT_SEED) -> List[BaryPoint]:
    """Seeded boundary points with at least two zero coordinates (n >= 2)."""
    if n < 2:
        raise ValueError("two zero slots need dimension >= 2")
    return _pinned_samples(_child_rng(seed, 5, n), n, count, 2, Fraction(0))


def layer_samples(n: int, alpha, count: int, seed: int = DEFAULT_SEED) -> List[BaryPoint]:
    """Seeded points whose minimum coordinate is exactly ``alpha``."""
    alpha = Fraction(alpha)
    if alpha == Fraction(1, n + 1):
        return [center(n)]
    return [project_layer(b, alpha) for b in boundary_samples(n, count, seed)]
