"""Shared fixtures; the expensive orbit computations run once per session."""

import pytest

from tits27 import certificates, cubicform, generators, orbits


@pytest.fixture(scope="session")
def gens():
    return generators.build_all()


@pytest.fixture(scope="session")
def gens5(gens):
    return list(gens)


@pytest.fixture(scope="session")
def certificate():
    """The `verify --seed 1` table as (name, ok) rows."""
    return list(certificates.rows(fast=False, seed=1))


@pytest.fixture(scope="session")
def dickson():
    return cubicform.dickson_form()


@pytest.fixture(scope="session")
def orbit2304(gens5):
    return orbits.enumerate_orbit(orbits.seed_fixed_vector(), gens5)


@pytest.fixture(scope="session")
def orbit1755(gens5):
    return orbits.enumerate_orbit(orbits.seed_proj_1755(), gens5)


@pytest.fixture(scope="session")
def perms_all(orbit2304, gens5):
    return orbits.perm_images(orbit2304, gens5)


@pytest.fixture(scope="session")
def chain_all(perms_all):
    return orbits.build_stab_chain(perms_all)


@pytest.fixture(scope="session")
def perms_psl(orbit2304, gens):
    return orbits.perm_images(orbit2304, [gens.f1, gens.f2, gens.ac, gens.eprime])


@pytest.fixture(scope="session")
def chain_psl(perms_psl):
    return orbits.build_stab_chain(perms_psl)


@pytest.fixture(scope="session")
def chain1755(orbit1755, gens5):
    return orbits.build_stab_chain(orbits.perm_images(orbit1755, gens5))
