import dataclasses
from fractions import Fraction

import pytest

from fzcover import (
    build_cover,
    compose_cover_morphisms,
    compose_fuzzy_morphisms,
    cyclic,
    default_grid,
    embed_morphism,
    embed_object,
    enumerate_cover_morphisms,
    enumerate_fuzzy_morphisms,
    enumerate_fuzzy_subgroups_filter,
    identity_cover_morphism,
    identity_fuzzy_morphism,
    klein_four,
    reconstruct_morphism,
    validate_cover_morphism,
    validate_fuzzy,
    validate_fuzzy_morphism,
    verify_embedding,
)
from fzcover.errors import (
    BudgetExceeded,
    CommutationFailure,
    MaximaNotPreserved,
    NotComposable,
    NotEmbeddingImage,
    NotGroupHom,
    NotOrderPreserving,
    TopNotPreserved,
)

F = Fraction


@pytest.fixture(scope="module")
def trivial_fz():
    return validate_fuzzy(cyclic(1), [F(1)])


# -- fuzzy-subgroup morphisms -----------------------------------------------------

def test_identity_morphism_is_valid(fz_z2):
    m = identity_fuzzy_morphism(fz_z2)
    assert m.f == (0, 1) and m.lam == (0, 1)


def test_collapse_morphism_is_valid(fz_z2, fz_z2_const):
    m = validate_fuzzy_morphism(fz_z2, fz_z2_const, (0, 0), (0, 0))
    assert m.target.chain == (F(1),)


def test_commutation_failure(fz_z2, fz_z2_const):
    # mu(f(a)) = 1/2 on the target side, but lam sends mu(a) = 1 to the top
    with pytest.raises(CommutationFailure) as exc:
        validate_fuzzy_morphism(fz_z2_const, fz_z2, (0, 1), (1,))
    assert exc.value.witness == 1


def test_group_component_must_be_homomorphism(fz_z2):
    with pytest.raises(NotGroupHom):
        validate_fuzzy_morphism(fz_z2, fz_z2, (1, 0), (0, 1))


def test_lambda_must_be_monotone_and_top_preserving(fz_v4, fz_z2):
    with pytest.raises(NotOrderPreserving):
        validate_fuzzy_morphism(fz_v4, fz_v4, tuple(range(4)), (1, 0, 2))
    with pytest.raises(TopNotPreserved):
        validate_fuzzy_morphism(fz_z2, fz_v4, (0, 2), (0, 0))


def test_compose_with_identity(fz_z2, fz_z2_const):
    m = validate_fuzzy_morphism(fz_z2, fz_z2_const, (0, 0), (0, 0))
    assert compose_fuzzy_morphisms(m, identity_fuzzy_morphism(fz_z2)) == m
    assert compose_fuzzy_morphisms(identity_fuzzy_morphism(fz_z2_const), m) == m


def test_compose_pointwise(fz_z2, fz_z2_const):
    first = identity_fuzzy_morphism(fz_z2)
    second = validate_fuzzy_morphism(fz_z2, fz_z2_const, (0, 0), (0, 0))
    composite = compose_fuzzy_morphisms(second, first)
    assert composite.f == (0, 0) and composite.lam == (0, 0)


def test_not_composable(fz_z2, fz_z2_const):
    m = validate_fuzzy_morphism(fz_z2, fz_z2_const, (0, 0), (0, 0))
    with pytest.raises(NotComposable):
        compose_fuzzy_morphisms(m, m)


# -- cover morphisms ----------------------------------------------------------------

def test_identity_cover_morphism(fz_z2):
    obj = embed_object(fz_z2)
    m = identity_cover_morphism(obj)
    assert m.fstar == (0, 1, 2) and m.lam == (0, 1)


def test_cover_morphism_commutation_failure(fz_z2):
    obj = embed_object(fz_z2)
    with pytest.raises(CommutationFailure):
        validate_cover_morphism(obj, obj, (0, 1, 2), (1, 1))


def test_cover_morphism_maxima_failure(fz_z2):
    obj = embed_object(fz_z2)
    # (0, 1, 0) is a monoid endomorphism but sends the class maximum
    # over the non-identity element to a non-maximum
    with pytest.raises(MaximaNotPreserved):
        validate_cover_morphism(obj, obj, (0, 1, 0), (0, 1))


# -- the embedding on objects --------------------------------------------------------

def test_embedded_objects(fz_z2, fz_v4, fz_z2_const, z2):
    obj = embed_object(fz_z2)
    assert obj.monoid.n == 3 and obj.base.n == 2

    obj = embed_object(fz_v4)
    assert obj.monoid.n == 7 and obj.base.n == 3

    obj = embed_object(fz_z2_const)
    assert obj.monoid.table == z2.table and obj.base.n == 1


# -- the embedding on morphisms -------------------------------------------------------

def test_embedding_of_identity_is_identity(fz_z2):
    assert embed_morphism(identity_fuzzy_morphism(fz_z2)) == identity_cover_morphism(
        embed_object(fz_z2)
    )


def test_embedding_collapses_with_trivial_f(fz_z2, fz_z2_const):
    m = validate_fuzzy_morphism(fz_z2, fz_z2_const, (0, 0), (0, 0))
    em = embed_morphism(m)
    c2 = build_cover(fz_z2_const)
    assert all(c2.pairs[i][1] == 0 for i in em.fstar)


def test_embedding_respects_composition(fz_z2, fz_z2_const):
    first = validate_fuzzy_morphism(fz_z2, fz_z2_const, (0, 0), (0, 0))
    for second in enumerate_fuzzy_morphisms(fz_z2_const, fz_z2_const):
        lhs = embed_morphism(compose_fuzzy_morphisms(second, first))
        rhs = compose_cover_morphisms(embed_morphism(second), embed_morphism(first))
        assert lhs == rhs


def test_lambda_component_is_preserved_literally(fz_z2, fz_v4):
    for m in enumerate_fuzzy_morphisms(fz_z2, fz_v4):
        assert embed_morphism(m).lam == m.lam


def test_lambda_sends_top_to_top_in_images(fz_z2, fz_v4):
    for m in enumerate_fuzzy_morphisms(fz_z2, fz_v4):
        em = embed_morphism(m)
        assert em.lam[em.source.base.unit] == em.target.base.unit


# -- fullness reconstruction -----------------------------------------------------------

def test_reconstruct_identity(fz_z2):
    c = identity_cover_morphism(embed_object(fz_z2))
    m = reconstruct_morphism(c, fz_z2, fz_z2)
    assert m == identity_fuzzy_morphism(fz_z2)


def test_reconstruct_roundtrip_on_hom_sets(fz_z2, fz_v4, fz_z2_const):
    pairs = [
        (fz_z2, fz_z2),
        (fz_z2, fz_z2_const),
        (fz_z2, fz_v4),
        (fz_v4, fz_v4),
    ]
    for f1, f2 in pairs:
        for m in enumerate_fuzzy_morphisms(f1, f2):
            assert reconstruct_morphism(embed_morphism(m), f1, f2) == m


def test_every_cover_morphism_is_hit_exactly_once(fz_z2, fz_z2_const):
    cover_homs = enumerate_cover_morphisms(
        embed_object(fz_z2), embed_object(fz_z2_const)
    )
    fuzzy_homs = enumerate_fuzzy_morphisms(fz_z2, fz_z2_const)
    assert len(cover_homs) == len(fuzzy_homs) == 2
    hits = [embed_morphism(reconstruct_morphism(c, fz_z2, fz_z2_const)) for c in cover_homs]
    assert hits == list(cover_homs)


def test_reconstruct_rejects_wrong_endpoints(fz_z2, fz_v4):
    c = identity_cover_morphism(embed_object(fz_z2))
    with pytest.raises(NotEmbeddingImage):
        reconstruct_morphism(c, fz_v4, fz_v4)


# -- instance certificates ---------------------------------------------------------------

def test_verify_embedding_self_pair(fz_z2):
    cert = verify_embedding(fz_z2, fz_z2)
    assert cert.ok
    assert len(cert.fuzzy_homs) == len(cert.cover_homs) == 2
    assert sorted(cert.bijection) == [0, 1]


def test_verify_embedding_to_trivial(fz_v4, trivial_fz):
    cert = verify_embedding(fz_v4, trivial_fz)
    assert cert.ok
    assert len(cert.fuzzy_homs) == len(cert.cover_homs) == 1


def test_verify_embedding_z2_to_v4(fz_z2, fz_v4):
    cert = verify_embedding(fz_z2, fz_v4)
    assert cert.ok
    assert cert.counts_equal
    assert cert.identity_ok and cert.faithful and cert.full and cert.roundtrip_ok


def test_certificate_serializes(fz_z2):
    doc = verify_embedding(fz_z2, fz_z2).to_json_dict()
    assert doc["ok"] is True
    assert doc["fuzzy_hom_count"] == doc["cover_hom_count"] == 2
    assert isinstance(doc["bijection"], list)


# -- the certification scope --------------------------------------------------------------

def test_shared_cache_with_value_equal_objects(z2, fz_z2, fz_z2_const, fz_v4):
    # hom-sets cached under one of two equal objects carry it as their endpoint
    twin = validate_fuzzy(z2, [F(1), F(1, 2)])
    assert twin == fz_z2 and twin is not fz_z2
    pool = [fz_z2, twin, fz_z2_const, fz_v4]
    cache: dict = {}
    for f1 in pool:
        for f2 in pool:
            cert = verify_embedding(f1, f2, hom_cache=cache)
            assert cert.ok, (f1, f2, cert.counterexample)


def counting_validations(patch) -> list:
    """Record every call of the cover-morphism validator that cover or embedding makes."""
    import fzcover.cover as cover
    import fzcover.embedding as embedding

    calls = []
    original = embedding.validate_cover_morphism

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module in (cover, embedding):
        patch.setattr(module, "validate_cover_morphism", counting)
    return calls


def test_each_embedded_morphism_is_built_once(monkeypatch, fz_z2, fz_v4):
    calls = counting_validations(monkeypatch)
    cache: dict = {}
    cert = verify_embedding(fz_z2, fz_v4, hom_cache=cache)
    assert cert.ok and cert.composition_checks > 0
    reverse = enumerate_fuzzy_morphisms(fz_v4, fz_z2)
    embedded = {identity_fuzzy_morphism(fz_z2), identity_fuzzy_morphism(fz_v4)}
    embedded.update(cert.fuzzy_homs, reverse)
    for m1 in cert.fuzzy_homs:
        for m2 in reverse:
            embedded.add(compose_fuzzy_morphisms(m2, m1))
            embedded.add(compose_fuzzy_morphisms(m1, m2))
    # the rest: the two identity cover morphisms; composites are looked up
    # in their hom-sets, whose embeddings are in ``embedded``, not validated again
    assert len(calls) == len(embedded) + 2
    # a warm cache keeps every embedding and both identity checks
    calls.clear()
    assert verify_embedding(fz_z2, fz_v4, hom_cache=cache) == cert
    assert calls == []


# -- composites by lookup against composites by definition --------------------------------

def composition_by_definition(scope, forward, reverse, hom_set):
    """The re-validating loop that the hom-set lookup replaced, as its oracle.

    Each composite is built and validated, embedded, and compared with the
    composite of the two embedded morphisms, which is validated again.
    """
    ok = True
    for m1 in forward:
        for m2 in reverse:
            for outer, inner in ((m2, m1), (m1, m2)):
                lhs = scope.embed(compose_fuzzy_morphisms(outer, inner))
                rhs = compose_cover_morphisms(scope.embed(outer), scope.embed(inner))
                if lhs != rhs:
                    ok = False
    return ok


def both_certificates(monkeypatch, source, target, hom_cache=None):
    import fzcover.embedding as embedding

    by_lookup = verify_embedding(source, target, hom_cache=hom_cache).to_json_dict()
    with monkeypatch.context() as patch:
        patch.setattr(embedding, "_respects_compositions", composition_by_definition)
        by_definition = verify_embedding(source, target, hom_cache=hom_cache).to_json_dict()
    return by_lookup, by_definition


@pytest.fixture(scope="module")
def pool():
    """The 40 grid-3 fuzzy subgroups of C2, C3, C4 and V4."""
    found = [
        fz
        for g in (cyclic(2), cyclic(3), cyclic(4), klein_four())
        for fz in enumerate_fuzzy_subgroups_filter(g, default_grid(3))
    ]
    assert len(found) == 40
    return found


def test_lookup_certifies_like_the_definition_on_a_pool(monkeypatch, pool):
    cache: dict = {}
    checks = 0
    for a in pool:
        for b in pool:
            by_lookup, by_definition = both_certificates(monkeypatch, a, b, cache)
            assert by_lookup == by_definition, (a, b)
            assert by_lookup["ok"]
            checks += by_lookup["composition_checks"]
    assert checks == 43352


def test_a_wrong_embedding_is_found_by_both(monkeypatch, fz_z2, fz_z2_const):
    import fzcover.embedding as embedding

    # Z2 -> const -> Z2 composes to the endomorphism that sends all to e and
    # every value to the top: only the composition check embeds it
    wrong = validate_fuzzy_morphism(fz_z2, fz_z2, (0, 0), (1, 1))
    embed = embedding._Scope.embed

    def planted(self, m):
        em = embed(self, m)
        if m == wrong:
            fstar = list(em.fstar)
            fstar[0] = (fstar[0] + 1) % len(fstar)
            return dataclasses.replace(em, fstar=tuple(fstar))
        return em

    monkeypatch.setattr(embedding._Scope, "embed", planted)
    by_lookup, by_definition = both_certificates(monkeypatch, fz_z2, fz_z2_const)
    assert by_lookup == by_definition
    assert by_lookup["composition_ok"] is False and by_lookup["ok"] is False
    assert by_lookup["counterexample"] == "embedding does not respect a composition"
    assert by_lookup["identity_ok"] and by_lookup["full"] and by_lookup["roundtrip_ok"]


def test_a_composite_missing_from_its_hom_set_is_recorded(monkeypatch, fz_z2, fz_z2_const):
    import fzcover.enumeration as enumeration

    missing = validate_fuzzy_morphism(fz_z2, fz_z2, (0, 0), (1, 1))
    enumerate_all = enumeration.enumerate_fuzzy_morphisms

    def lacking(source, target, budget):
        return [m for m in enumerate_all(source, target, budget) if m != missing]

    monkeypatch.setattr(enumeration, "enumerate_fuzzy_morphisms", lacking)
    cert = verify_embedding(fz_z2, fz_z2_const)
    assert not cert.ok and not cert.composition_ok
    assert cert.counterexample == "embedding does not respect a composition"
    assert cert.identity_ok and cert.faithful and cert.full and cert.roundtrip_ok


def test_each_endomorphism_search_has_the_budget(monkeypatch, fz_v4, trivial_fz):
    import fzcover.enumeration as enumeration

    searched = []
    enumerate_all = enumeration.enumerate_fuzzy_morphisms

    def recording(source, target, budget):
        searched.append((source, target))
        return enumerate_all(source, target, budget)

    monkeypatch.setattr(enumeration, "enumerate_fuzzy_morphisms", recording)
    # every search of Hom(C1, V4), Hom(V4, C1) and their covers fits in 7
    # nodes; Hom(V4, V4), searched only to look composites up, does not
    with pytest.raises(BudgetExceeded) as exc:
        verify_embedding(trivial_fz, fz_v4, budget=7)
    assert str(exc.value) == "8 group homomorphism nodes exceed budget 7"
    assert searched == [
        (trivial_fz, fz_v4), (fz_v4, trivial_fz), (trivial_fz, trivial_fz), (fz_v4, fz_v4)
    ]


# -- one hom_cache across a pool against one per pair --------------------------------------

def pool_certificates(pool, shared: bool) -> list[dict]:
    """Every ordered pair of the pool, with one hom_cache or a fresh one per pair."""
    cache: dict = {}
    return [
        verify_embedding(a, b, hom_cache=cache if shared else {}).to_json_dict()
        for a in pool
        for b in pool
    ]


def plant_wrong_embedding(patch, wrong) -> None:
    """Make the validator hand back the embedding of ``wrong`` with one fstar entry moved.

    The plant sits below the embedding memo, so a shared hom_cache keeps the
    wrong embedding for every later pair, and a fresh one builds it again.
    """
    import fzcover.cover as cover
    import fzcover.embedding as embedding

    right = embed_morphism(wrong)
    validate = embedding.validate_cover_morphism

    def planted(*args):
        em = validate(*args)
        if em == right:
            fstar = list(em.fstar)
            fstar[0] = (fstar[0] + 1) % len(fstar)
            return dataclasses.replace(em, fstar=tuple(fstar))
        return em

    for module in (cover, embedding):
        patch.setattr(module, "validate_cover_morphism", planted)


def test_a_shared_cache_certifies_like_no_sharing(monkeypatch, pool):
    with monkeypatch.context() as patch:
        calls = counting_validations(patch)
        shared = pool_certificates(pool, shared=True)
    assert shared == pool_certificates(pool, shared=False)
    assert all(doc["ok"] for doc in shared)
    # one validation per morphism of the pool and one identity check per object
    assert len(calls) == sum(doc["fuzzy_hom_count"] for doc in shared) + len(pool)


def test_a_wrong_embedding_is_named_alike_with_and_without_sharing(monkeypatch, pool):
    # the endomorphism of a two-level C2 that sends all to e and every value to the top
    fz = next(fz for fz in pool if fz.n == 2 and len(fz.chain) == 2)
    plant_wrong_embedding(monkeypatch, validate_fuzzy_morphism(fz, fz, (0, 0), (1, 1)))
    shared = pool_certificates(pool, shared=True)
    assert shared == pool_certificates(pool, shared=False)
    named = {
        (i, doc["counterexample"]) for i, doc in enumerate(shared) if not doc["ok"]
    }
    self_pair = pool.index(fz) * (len(pool) + 1)
    assert (self_pair, "image of fuzzy morphism 0 missing from cover hom-set") in named
    assert {text for _, text in named} == {
        "image of fuzzy morphism 0 missing from cover hom-set",
        "embedding does not respect a composition",
    }
    assert not shared[self_pair]["roundtrip_ok"]


def test_a_budget_failure_leaves_the_shared_cache_sound(fz_v4, trivial_fz):
    cache: dict = {}
    # the hom-sets of the pair and their embeddings fit in 7 nodes; Hom(V4, V4) does not
    with pytest.raises(BudgetExceeded):
        verify_embedding(trivial_fz, fz_v4, budget=7, hom_cache=cache)
    assert cache
    for a, b in ((trivial_fz, fz_v4), (fz_v4, trivial_fz), (fz_v4, fz_v4)):
        expected = verify_embedding(a, b).to_json_dict()
        assert verify_embedding(a, b, hom_cache=cache).to_json_dict() == expected


def test_hom_caches_share_nothing(monkeypatch, fz_z2):
    planted_cache: dict = {}
    with monkeypatch.context() as patch:
        plant_wrong_embedding(patch, validate_fuzzy_morphism(fz_z2, fz_z2, (0, 0), (1, 1)))
        assert not verify_embedding(fz_z2, fz_z2, hom_cache=planted_cache).ok
    # the wrong embedding is kept in the dict it was made in, and only there
    assert not verify_embedding(fz_z2, fz_z2, hom_cache=planted_cache).ok
    assert verify_embedding(fz_z2, fz_z2, hom_cache={}).ok
    assert verify_embedding(fz_z2, fz_z2).ok


def test_a_failed_round_trip_is_recorded(monkeypatch, fz_z2_const):
    # the moved entry sends the pair over e to the pair over a, so the
    # reconstructed f moves the identity and is not a homomorphism
    plant_wrong_embedding(
        monkeypatch, validate_fuzzy_morphism(fz_z2_const, fz_z2_const, (0, 0), (0,))
    )
    cert = verify_embedding(fz_z2_const, fz_z2_const)
    assert not cert.ok and not cert.roundtrip_ok and not cert.full
    assert cert.counterexample == "image of fuzzy morphism 0 missing from cover hom-set"
