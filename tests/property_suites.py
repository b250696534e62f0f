"""Randomized property suites shared by the module tests and the acceptance run.

Each suite draws its instances from a seeded generator and raises on the first
violated invariant, so a clean return is the assertion.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import trapezoid

from eigmatch.eig import eig_sym
from eigmatch.match import sorted_match

from oracles import empirical_quantile, min_perm_match


def sorted_pair_suite(trials: int = 1000, seed: int = 1):
    """Sorting both vectors never increases the max pairwise difference."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        m = int(rng.integers(1, 51))
        x = rng.normal(size=m) * rng.uniform(0.1, 10)
        y = rng.normal(size=m) * rng.uniform(0.1, 10)
        sorted_max = float(np.max(np.abs(np.sort(x) - np.sort(y))))
        identity_max = float(np.max(np.abs(x - y)))
        assert sorted_max <= identity_max + 1e-15, (sorted_max, identity_max)


def min_perm_suite(trials: int = 100, seed: int = 2):
    """The exhaustive permutation minimum equals the sorted pairing value."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        m = int(rng.integers(1, 9))
        x = rng.normal(size=m)
        y = rng.normal(size=m)
        assert min_perm_match(x, y) == sorted_match(x, y).m_n


def quantile_measure_suite(trials: int = 1000, seed: int = 4):
    """Node fractions below a threshold track the sample fractions within 1/omega."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        m = int(rng.integers(2, 101))
        samples = rng.normal(size=m) * rng.uniform(0.1, 5)
        q = empirical_quantile(samples)
        u = rng.uniform(samples.min() - 0.5, samples.max() + 0.5)
        node_frac = float(np.sum(q.sorted_samples <= u)) / q.omega
        sample_frac = float(np.sum(samples <= u)) / samples.size
        assert abs(node_frac - sample_frac) <= 1.0 / q.omega + 1e-12


def quantile_integral_suite(trials: int = 1000, seed: int = 5):
    """Sample means of F equal trapezoid integrals of F over the interpolant."""
    rng = np.random.default_rng(seed)
    tests = [
        (lambda v: v, lambda s: 1.0),
        (lambda v: v**2, lambda s: 2.0 * np.max(np.abs(s))),
        (lambda v: np.clip(v, -1.0, 1.0), lambda s: 1.0),
    ]
    for _ in range(trials):
        m = int(rng.integers(2, 80))
        samples = rng.normal(size=m) * rng.uniform(0.1, 3)
        q = empirical_quantile(samples)
        gap = float(np.max(np.diff(q.sorted_samples))) if m > 1 else 0.0
        for F, lipschitz in tests:
            mean = float(np.mean(F(samples)))
            integral = float(trapezoid(F(q.sorted_samples), dx=1.0 / q.omega))
            bound = 2.0 * lipschitz(samples) * gap + 1e-12
            assert abs(mean - integral) <= bound, (mean, integral, bound)


def weyl_suite(trials: int = 100, seed: int = 9):
    """Sorted eigenvalues move by at most the spectral norm of the perturbation."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        n = int(rng.integers(2, 41))
        A = rng.normal(size=(n, n))
        A = 0.5 * (A + A.T)
        E = rng.normal(scale=rng.uniform(1e-3, 1.0), size=(n, n))
        E = 0.5 * (E + E.T)
        shift = np.max(np.abs(eig_sym(A + E).values - eig_sym(A).values))
        assert shift <= np.linalg.norm(E, 2) + 1e-9
