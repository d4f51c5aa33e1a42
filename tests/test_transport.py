"""Hom-sets carried along automorphisms: one search per orbit of shape pairs.

`embedding._homs` searches Hom(s, t) once per pair of orbits of shapes under
the automorphisms of the groups, on the first pair of the caller's objects
in it, keeps it carried to the pair of the two orbits' least shapes, and
carries its arrays and positions from there to the other pairs of that
orbit pair.  The oracles here use no carrying: the automorphisms are counted against
closed forms and found again by generator images, every carried record is
compared, field by field, with the search of its own pair of shapes, which
is how every record was found before, and the least shapes are found again
from those automorphisms.
"""

import json
import sys
from fractions import Fraction as F
from math import gcd

import pytest

from fzcover import (
    build_cover,
    cyclic,
    default_grid,
    dihedral,
    enumerate_cover_morphisms,
    enumerate_fuzzy_morphisms,
    enumerate_fuzzy_subgroups_filter,
    enumerate_group_homomorphisms,
    is_group_homomorphism,
    klein_four,
    parse_workspace,
    symmetric,
    validate_fuzzy,
    validate_group,
    verify_embedding,
)
from fzcover.errors import DEFAULT_BUDGET, BudgetExceeded
from tests.conftest import automorphisms_by_images
from tests.test_embedding import recording_searches, shape

FIELDS = ("fuzzy", "cover", "image", "back")


def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_the_automorphisms_are_as_many_as_the_closed_forms():
    import fzcover.embedding as embedding

    # |Aut(Cn)| = phi(n); Aut(V4) = S3 and Aut(S3) = Inn(S3); the dihedral
    # group of order 2m has m phi(m) automorphisms for m >= 3; Aut(S4) = S4
    expected = (
        [(cyclic(n), euler_phi(n)) for n in range(1, 13)]
        + [(klein_four(), 6), (symmetric(3), 6)]
        + [(dihedral(m), m * euler_phi(m)) for m in range(3, 7)]
        + [(symmetric(4), 24)]
    )
    for group, count in expected:
        found = embedding._automorphisms({}, group, DEFAULT_BUDGET)
        assert len(found) == count, group
        assert sorted(found) == automorphisms_by_images(group), group


@pytest.fixture(scope="module")
def pools(pool):
    """The 40-object grid-3 pool, D8 at k = 3 and S4 at k = 2."""
    found = [
        pool,
        enumerate_fuzzy_subgroups_filter(dihedral(4), default_grid(3)),
        enumerate_fuzzy_subgroups_filter(symmetric(4), default_grid(2)),
    ]
    assert [len(objects) for objects in found] == [40, 45, 31]
    return found


def searched(s, t, group_homs: dict) -> dict:
    """The arrays of Hom(s, t) as a search of that pair of shapes finds them.

    Both enumerators, and the position arrays by their definition: fstar(u,
    x) is the position of (lam(u), f(x)) among the target's pairs, and f(x)
    the group component of fstar at (mu(x), x).  ``group_homs`` keeps each
    group hom-set by its pair of groups, and never a hom record.
    """
    c1, c2 = build_cover(s), build_cover(t)
    groups = (s.group, t.group)
    if groups not in group_homs:
        group_homs[groups] = enumerate_group_homomorphisms(*groups)
    found = enumerate_fuzzy_morphisms(s, t, group_homs=group_homs[groups])
    fuzzy = [(m.f, m.lam) for m in found]
    cover = [(c.fstar, c.lam) for c in enumerate_cover_morphisms(c1.triple, c2.triple)]
    index = {arrays: i for i, arrays in enumerate(fuzzy)}
    listed = {arrays: j for j, arrays in enumerate(cover)}

    def fstar_of(f, lam):
        return tuple(c2.pair_index.get((lam[u], f[x]), -1) for u, x in c1.pairs)

    def f_of(fstar):
        return tuple(c2.pairs[fstar[c1.pair_index[(s._rank[x], x)]]][1] for x in range(s.n))

    return {
        "fuzzy": fuzzy,
        "cover": cover,
        "image": tuple(listed.get((fstar_of(f, lam), lam), -1) for f, lam in fuzzy),
        "back": [index.get((f_of(fstar), lam), -1) for fstar, lam in cover],
    }


def carried_unlike_searched(objects) -> list[tuple]:
    """Every ordered pair of shapes of ``objects`` whose record, found with
    one store in pair order, differs from the search of that pair."""
    import fzcover.embedding as embedding

    shapes = list({(fz.group, fz._rank): fz for fz in objects}.values())
    store: dict = {}
    group_homs: dict = {}
    differ = []
    with pytest.MonkeyPatch.context() as patch:
        log = recording_searches(patch)
        for s in shapes:
            for t in shapes:
                record = embedding._homs(store, s, t, DEFAULT_BUDGET)
                kept = {field: getattr(record, field) for field in FIELDS}
                if kept != searched(s, t, group_homs):
                    differ.append((s, t))
    # some records were carried, not searched
    assert sum(side == "cover" for side, _, _ in log) < len(shapes) ** 2
    return differ


def identity_last(group):
    """``group`` with its elements listed one place earlier, so that its
    identity, element 0, comes last."""
    n = group.n
    names = group.names[1:] + group.names[:1]
    table = [[(group.table[(a + 1) % n][(b + 1) % n] - 1) % n for b in range(n)] for a in range(n)]
    return validate_group(names, table)


def test_each_carried_record_equals_the_search_of_its_pair(pools):
    # with the identity listed first, an fstar array starts with lam; V4
    # with it listed last tells the cover order (lam, fstar) from fstar's own
    v4 = identity_last(klein_four())
    assert v4.identity == 3
    for objects in (*pools, enumerate_fuzzy_subgroups_filter(v4, default_grid(3))):
        assert carried_unlike_searched(objects) == []


def test_a_bijection_that_is_no_automorphism_carries_wrong_records(monkeypatch, pools):
    import fzcover.embedding as embedding

    d8 = pools[1][0].group
    # s2 and s3 swapped, all else fixed: it keeps the identity, yet no
    # automorphism moves one reflection alone
    planted = tuple(range(6)) + (7, 6)
    assert not is_group_homomorphism(planted, d8, d8)
    automorphisms = embedding._automorphisms

    def with_planted(store, group, budget):
        found = automorphisms(store, group, budget)
        return found + [planted] if group is d8 else found

    monkeypatch.setattr(embedding, "_automorphisms", with_planted)
    assert carried_unlike_searched(pools[1])


def v4_shapes_of_one_orbit() -> tuple:
    """Two fuzzy subgroups of V4 of distinct shapes, which the automorphism
    that swaps a and b carries one onto the other."""
    v4 = klein_four()
    return (
        validate_fuzzy(v4, [F(1), F(1, 2), F(1, 4), F(1, 4)]),
        validate_fuzzy(v4, [F(1), F(1, 4), F(1, 2), F(1, 4)]),
    )


def test_a_carried_record_runs_no_search_and_checks_no_budget(monkeypatch):
    a, b = v4_shapes_of_one_orbit()
    assert a._rank != b._rank
    cache: dict = {}
    assert verify_embedding(a, a, hom_cache=cache).ok
    searched_now = recording_searches(monkeypatch)
    cert = verify_embedding(b, b, budget=0, hom_cache=cache)
    assert cert.ok and searched_now == []
    assert cert.to_json_dict() == verify_embedding(b, b, hom_cache={}).to_json_dict()


def test_a_search_over_budget_leaves_its_orbit_to_the_next_pair(monkeypatch, orbit):
    a, b = v4_shapes_of_one_orbit()
    # the least shape of the orbit is neither of the two
    assert orbit(a) == orbit(b) and orbit(a) not in {shape(a), shape(b)}
    cache: dict = {}
    # a pair of constant subgroups leaves the automorphisms of V4 kept, so
    # with 7 nodes the search of Hom(a, a), on the pair's own object, fails
    # at its cover side
    constant = validate_fuzzy(a.group, [F(1)] * 4)
    assert verify_embedding(constant, constant, hom_cache=cache).ok
    kept = set(cache)
    with pytest.raises(BudgetExceeded) as first:
        verify_embedding(a, a, budget=7, hom_cache=cache)
    assert str(first.value) == "8 monoid homomorphism nodes exceed budget 7"
    assert {key[0] for key in set(cache) - kept} == {"cover", "orbit"}
    searched_now = recording_searches(monkeypatch)
    with pytest.raises(BudgetExceeded) as again:
        verify_embedding(b, b, budget=7, hom_cache=cache)
    assert str(again.value) == str(first.value)
    assert [side for side, _, _ in searched_now] == ["fuzzy", "cover"]
    # with the budget it needs the orbit is searched once, on the first pair
    # asked about, and carried to the other
    searched_now.clear()
    assert verify_embedding(b, b, hom_cache=cache).ok and verify_embedding(a, a, hom_cache=cache).ok
    cover = build_cover(b).triple
    assert searched_now == [("fuzzy", b, b), ("cover", cover, cover)]


def certify_pool_of_seed(seed: int) -> list:
    """The objects of the certify-pool benchmark workload for ``seed``, in pair order.

    ``bench.inputs`` is imported with no bytecode written, so the bench
    directory is left as it was.
    """
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        from bench.inputs import make_certify_pool
    finally:
        sys.dont_write_bytecode = dont_write

    spec = make_certify_pool(seed)
    ws = parse_workspace(spec["workspace"])
    return [ws.fuzzies[obj["name"]] for obj in spec["objects"]]


def test_a_pool_runs_one_cover_search_per_orbit_pair(monkeypatch, pools, orbit):
    searched_now = recording_searches(monkeypatch)
    searches, orbits, shapes = [], [], []
    for objects in (certify_pool_of_seed(1), pools[1], pools[2]):
        searched_now.clear()
        cache: dict = {}
        assert all(verify_embedding(a, b, hom_cache=cache).ok for a in objects for b in objects)
        searches.append(sum(side == "cover" for side, _, _ in searched_now))
        orbits.append(len({orbit(fz) for fz in objects}))
        shapes.append(len({(fz.group, fz._rank) for fz in objects}))
    # the orbits are the isomorphism classes of each pool: 12 of the 16
    # shapes of C2, C3, C4 and V4, 13 of the 25 of D8 and 11 of the 30 of S4
    assert (orbits, shapes) == ([12, 13, 11], [16, 25, 30])
    assert searches == [count**2 for count in orbits]


def test_a_store_holds_and_searches_only_the_callers_objects(monkeypatch, orbit):
    import fzcover.embedding as embedding

    linked = []
    indexed = embedding._indexed

    def counting(*args):
        linked.append(args)
        return indexed(*args)

    monkeypatch.setattr(embedding, "_indexed", counting)
    searched_now = recording_searches(monkeypatch)
    for seed in (1, 2):
        objects = certify_pool_of_seed(seed)
        searched_now.clear()
        linked.clear()
        cache: dict = {}
        assert all(verify_embedding(a, b, hom_cache=cache).ok for a in objects for b in objects)
        # one cover per object asked about, and no other
        covered = [key[1] for key in cache if key[0] == "cover"]
        assert len(covered) == len(set(objects)) == 32 and set(covered) == set(objects)
        # every search runs between the caller's objects or their covers
        ends = set(objects) | {build_cover(fz).triple for fz in objects}
        assert searched_now and all({s, t} <= ends for _, s, t in searched_now)
        # each orbit pair is linked once, and every other record carried
        orbits = {orbit(fz) for fz in objects}
        assert len(linked) == len(orbits) ** 2 == 12**2


@pytest.mark.parametrize("field", ["image", "back"])
def test_positions_carried_unpermuted_are_found(monkeypatch, pool, field):
    import dataclasses

    import fzcover.embedding as embedding

    transported = embedding._transported
    fired = []

    # a carry that moves the morphisms but leaves one position array as it was
    def unpermuted(first, source, target):
        carried = transported(first, source, target)
        if getattr(carried, field) != getattr(first, field):
            fired.append((first, carried))
        return dataclasses.replace(carried, **{field: getattr(first, field)})

    monkeypatch.setattr(embedding, "_transported", unpermuted)
    assert carried_unlike_searched(pool) and fired


def least_shapes_unlike_the_oracle(store: dict, objects, orbit) -> list:
    """The objects of ``objects`` whose orbit entry in ``store`` names a rank
    vector other than the ``orbit`` oracle's least one."""
    kept = {key[1:]: entry[0] for key, entry in store.items() if key[0] == "orbit"}
    # every orbit entry is of an object's shape: the pools hold every shape
    # of up to as many levels as their grids, the least ones too
    assert kept.keys() == {shape(fz) for fz in objects}
    return [fz for fz in objects if (fz.group, kept[shape(fz)]) != orbit(fz)]


def test_every_store_entry_is_the_same_in_either_pair_order(monkeypatch, pools, orbit):
    import fzcover.embedding as embedding

    pool = pools[0]
    # one store per pass, over every pair in pair order and then in reverse
    # order: each orbit pair is searched on the first pair of it met, which
    # differs between the two, but kept at its least shapes either way, so
    # the two stores and the certificates are the same
    searched_now = recording_searches(monkeypatch)
    pairs = [(a, b) for a in pool for b in pool]
    orbits = {orbit(fz) for fz in pool}
    assert len(orbits) == 12 < len({shape(fz) for fz in pool})
    passes, stores = [], []
    for order in (pairs, pairs[::-1]):
        searched_now.clear()
        cache: dict = {}
        passes.append({
            (a, b): json.dumps(verify_embedding(a, b, hom_cache=cache).to_json_dict())
            for a, b in order
        })
        assert sum(side == "cover" for side, _, _ in searched_now) == len(orbits) ** 2
        assert least_shapes_unlike_the_oracle(cache, pool, orbit) == []
        stores.append(cache)
    first, reverse = passes
    assert [first[pair] for pair in pairs] == [reverse[pair] for pair in pairs]
    forward, backward = stores
    assert forward.keys() == backward.keys()
    for kind in ("orbit", "group homs"):
        kept = [key for key in forward if key[0] == kind]
        assert kept and [forward[key] for key in kept] == [backward[key] for key in kept]
    records = [key for key in forward if key[0] == "homs"]
    assert len(records) == 16**2
    assert [vars(forward[key]) for key in records] == [vars(backward[key]) for key in records]
    # the orbit entries of the D8 and S4 pools name the oracle's least shapes
    for objects, count in zip(pools[1:], (13, 11)):
        store: dict = {}
        for fz in objects:
            embedding._orbit(store, fz, DEFAULT_BUDGET)
        assert least_shapes_unlike_the_oracle(store, objects, orbit) == []
        assert len({orbit(fz) for fz in objects}) == count
        assert len({entry[0] for key, entry in store.items() if key[0] == "orbit"}) == count
