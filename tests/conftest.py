from fractions import Fraction
from itertools import product

import pytest

from fzcover import (
    cyclic,
    default_grid,
    enumerate_fuzzy_subgroups_filter,
    klein_four,
    symmetric,
    validate_fuzzy,
    validate_group,
)


@pytest.fixture(scope="session")
def z2():
    return validate_group(["e", "a"], [[0, 1], [1, 0]])


@pytest.fixture(scope="session")
def v4():
    return klein_four()


@pytest.fixture(scope="session")
def s3():
    return symmetric(3)


@pytest.fixture(scope="session")
def fz_z2(z2):
    """The running example: mu(e)=1, mu(a)=1/2 on the order-2 group."""
    return validate_fuzzy(z2, [Fraction(1), Fraction(1, 2)])


@pytest.fixture(scope="session")
def fz_v4(v4):
    """mu(e)=1, mu(a)=1/2, mu(b)=mu(c)=1/4 on the Klein four-group."""
    return validate_fuzzy(
        v4, [Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
    )


@pytest.fixture(scope="session")
def fz_z2_const(z2):
    """Constant mu = 1 on the order-2 group (trivial chain)."""
    return validate_fuzzy(z2, [Fraction(1), Fraction(1)])


@pytest.fixture(scope="session")
def acceptance_pools():
    """The pools whose every ordered pair the embedding is certified on.

    The 50 grid-4 fuzzy subgroups of C2 and V4 (acceptance criterion 5), and
    the 62 grid-3 fuzzy subgroups of C2, C3, C4, V4 and S3.
    """
    def pool(groups, k):
        return [fz for g in groups for fz in enumerate_fuzzy_subgroups_filter(g, default_grid(k))]

    pools = [
        pool((cyclic(2), klein_four()), 4),
        pool((cyclic(2), cyclic(3), cyclic(4), klein_four(), symmetric(3)), 3),
    ]
    assert [len(p) for p in pools] == [50, 62]
    return pools


@pytest.fixture(scope="session")
def pool():
    """The 40 grid-3 fuzzy subgroups of C2, C3, C4 and V4."""
    found = [
        fz
        for g in (cyclic(2), cyclic(3), cyclic(4), klein_four())
        for fz in enumerate_fuzzy_subgroups_filter(g, default_grid(3))
    ]
    assert len(found) == 40
    return found


def automorphisms_by_images(group) -> list[tuple[int, ...]]:
    """Every automorphism of ``group``, found with no library search.

    Each assignment of images to the group's generators is spread along
    right products, f(x*g) = f(x)*f(g), from f(e) = e; it is kept when no
    product is given two images, every element is reached and the images
    are distinct.  That is a bijective homomorphism, as f(x*g) = f(x)*f(g)
    for every x and every generator g gives it for every product.
    """
    table, gens, n = group.table, group.generators, group.n
    found = []
    for images in product(range(n), repeat=len(gens)):
        f = {group.identity: group.identity}
        todo = [group.identity]
        consistent = True
        while todo and consistent:
            x = todo.pop()
            for g, image in zip(gens, images):
                y, value = table[x][g], table[f[x]][image]
                if y not in f:
                    f[y] = value
                    todo.append(y)
                elif f[y] != value:
                    consistent = False
        if consistent and len(f) == n and len(set(f.values())) == n:
            found.append(tuple(f[x] for x in range(n)))
    return sorted(found)


@pytest.fixture(scope="session")
def orbit():
    """The orbit of a fuzzy subgroup's shape under the automorphisms of its
    group, named by the group and its least rank vector ranks.gamma."""
    automorphisms: dict = {}

    def orbit_of(fz) -> tuple:
        if fz.group not in automorphisms:
            automorphisms[fz.group] = automorphisms_by_images(fz.group)
        ranks = fz._rank
        return fz.group, min(tuple(ranks[x] for x in gamma) for gamma in automorphisms[fz.group])

    return orbit_of
