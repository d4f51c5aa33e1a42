from fractions import Fraction

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
