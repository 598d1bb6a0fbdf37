import itertools
import time

import numpy as np
import pytest

import etale


def pytest_configure(config):
    config._suite_start = time.time()


@pytest.fixture(scope="session")
def f2():
    return etale.group_model(etale.FreeGroup(2))


@pytest.fixture(scope="session")
def z():
    return etale.group_model(etale.FreeGroup(1))


@pytest.fixture(scope="session")
def f2_32():
    rng = np.random.default_rng(7)
    perms = [rng.permutation(32).tolist() for _ in range(2)]
    return etale.build_model(etale.FreeGroup(2), 32, perms)


@pytest.fixture(scope="session")
def z2_swap():
    return etale.build_model(etale.FiniteGroup([[0, 1], [1, 0]], [1]), 2, [[1, 0]])


@pytest.fixture(scope="session")
def z6():
    table = [[(i + j) % 6 for j in range(6)] for i in range(6)]
    return etale.group_model(etale.FiniteGroup(table, [1]))


@pytest.fixture(scope="session")
def s3():
    """S_3 acting on 3 points, generated by a transposition and a 3-cycle."""
    perms = list(itertools.permutations(range(3)))
    # right action: p . q moves x to q[p[x]]
    table = [[perms.index(tuple(q[p[x]] for x in range(3))) for q in perms] for p in perms]
    gens = [perms.index((1, 0, 2)), perms.index((1, 2, 0))]
    return etale.build_model(etale.FiniteGroup(table, gens), 3, [[1, 0, 2], [1, 2, 0]])


@pytest.fixture(scope="session")
def mu_f2(f2):
    return etale.MeasureContext.uniform(f2)


@pytest.fixture(scope="session")
def mu_z(z):
    return etale.MeasureContext.uniform(z)


@pytest.fixture(scope="session")
def mu_f2_32(f2_32):
    return etale.MeasureContext.uniform(f2_32)


def random_function(model, rng, radius, n_entries, complex_values=True):
    """Seeded sparse function supported in the radius-``radius`` balls."""
    pool = [g for u in range(model.units) for g in model.ball(u, radius)]
    idx = rng.choice(len(pool), size=min(n_entries, len(pool)), replace=False)
    data = {}
    for i in sorted(idx):
        v = rng.uniform(-1, 1) + (1j * rng.uniform(-1, 1) if complex_values else 0)
        data[pool[i]] = v
    return etale.CcFunction(model, data)
