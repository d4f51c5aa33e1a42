import dataclasses
import hashlib
import json
from fractions import Fraction

import pytest

from fzcover import (
    CoverReport,
    EmbeddingCertificate,
    FuzzyMorphism,
    build_cover,
    compose_cover_morphisms,
    compose_fuzzy_morphisms,
    cyclic,
    embed_morphism,
    embed_object,
    enumerate_cover_morphisms,
    enumerate_fuzzy_morphisms,
    identity_cover_morphism,
    identity_fuzzy_morphism,
    reconstruct_morphism,
    validate_cover_morphism,
    validate_fuzzy,
    validate_fuzzy_morphism,
    verify_embedding,
)
from fzcover.cover import CoverMorphism
from fzcover.errors import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    CommutationFailure,
    MaximaNotPreserved,
    NotComposable,
    NotEmbeddingImage,
    NotGroupHom,
    NotHomomorphism,
    NotOrderPreserving,
    ReconstructionMismatch,
    TopNotPreserved,
    ValidationError,
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


# -- the morphism records ------------------------------------------------------------

def test_morphism_records_are_immutable_named_tuples(fz_z2):
    obj = embed_object(fz_z2)
    records = (
        (identity_fuzzy_morphism(fz_z2), fz_z2, "FuzzyMorphism", ("source", "target", "f", "lam")),
        (identity_cover_morphism(obj), obj, "CoverMorphism", ("source", "target", "fstar", "lam")),
    )
    for m, end, name, fields in records:
        assert type(m)._fields == fields
        maps = tuple(getattr(m, field) for field in fields[2:])
        assert repr(m) == (
            f"{name}(source={end!r}, target={end!r}, "
            f"{fields[2]}={maps[0]!r}, {fields[3]}={maps[1]!r})"
        )
        copy = type(m)(end, end, *maps)
        assert copy == m == (end, end, *maps) and hash(copy) == hash(m)
        source, target, first, second = m
        assert (source, target, first, second) == (end, end, *maps) and m[2] == maps[0]
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(m, field, None)
    # certificates and reports stay dataclasses: planted faults replace their fields
    assert dataclasses.is_dataclass(EmbeddingCertificate)
    assert dataclasses.is_dataclass(CoverReport)


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


def test_an_inadmissible_image_pair_is_no_homomorphism(fz_z2):
    # lam lifts the level 1/2 of a to the top, where a has no pair: fstar
    # has no image for (1/2, a), and the cover-morphism validator refuses it
    unchecked = FuzzyMorphism(fz_z2, fz_z2, (0, 1), (1, 1))
    with pytest.raises(NotHomomorphism, match="fstar is not a monoid homomorphism"):
        embed_morphism(unchecked)


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


def test_reconstruct_rejects_a_pair_whose_f_is_no_homomorphism(fz_z2):
    # fstar swaps the class maxima (1, e) and (0, a), so the f read back
    # sends e to a; the pair is built past the cover-morphism validator
    obj = embed_object(fz_z2)
    c = CoverMorphism(obj, obj, (0, 2, 1), (0, 1))
    with pytest.raises(ReconstructionMismatch, match="reconstructed pair is not a morphism"):
        reconstruct_morphism(c, fz_z2, fz_z2)


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


def counting_validations(patch) -> dict:
    """Count the calls of both morphism validators, wherever the library makes them."""
    import fzcover.cover as cover
    import fzcover.embedding as embedding
    import fzcover.enumeration as enumeration
    import fzcover.fuzzy as fuzzy

    calls = {"fuzzy": 0, "cover": 0}
    for side, home, name in (
        ("fuzzy", fuzzy, "validate_fuzzy_morphism"),
        ("cover", cover, "validate_cover_morphism"),
    ):

        def counting(*args, side=side, original=getattr(home, name)):
            calls[side] += 1
            return original(*args)

        for module in (fuzzy, cover, enumeration, embedding):
            if hasattr(module, name):
                patch.setattr(module, name, counting)
    return calls


def test_each_embedded_morphism_is_built_once(monkeypatch, fz_z2, fz_v4):
    # the pair, its reverse, and Hom(a, a) and Hom(b, b) for the composites
    pairs = [(fz_z2, fz_v4), (fz_v4, fz_z2), (fz_z2, fz_z2), (fz_v4, fz_v4)]
    fuzzy_entries = sum(len(enumerate_fuzzy_morphisms(s, t)) for s, t in pairs)
    cover_entries = sum(
        len(enumerate_cover_morphisms(embed_object(s), embed_object(t))) for s, t in pairs
    )
    calls = counting_validations(monkeypatch)
    cache: dict = {}
    cert = verify_embedding(fz_z2, fz_v4, hom_cache=cache)
    assert cert.ok and cert.composition_checks > 0
    # each hom-set entry is validated by its enumerator, and nothing else:
    # the identities are read off the arrays of Hom(a, a) and Hom(b, b), and
    # nothing is embedded, reconstructed or composed and validated again
    assert calls == {"fuzzy": fuzzy_entries, "cover": cover_entries}
    # a warm cache keeps every hom-set
    calls.update(fuzzy=0, cover=0)
    assert verify_embedding(fz_z2, fz_v4, hom_cache=cache) == cert
    assert calls == {"fuzzy": 0, "cover": 0}


# -- the certificate against its definition -----------------------------------------------

def attempt(build, *args):
    """build(*args), or None where it raises a validation or reconstruction error."""
    try:
        return build(*args)
    except (ValidationError, ReconstructionMismatch):
        return None


def hom_sets():
    """Both enumerated hom-sets of an ordered pair, each pair enumerated once."""
    found = {}

    def homs(s, t):
        if (s, t) not in found:
            found[s, t] = (
                enumerate_fuzzy_morphisms(s, t),
                enumerate_cover_morphisms(embed_object(s), embed_object(t)),
            )
        return found[s, t]

    return homs


def embedder():
    """embed_morphism, once per morphism, with None where it raises."""
    images = {}

    def embedded(m):
        if m not in images:
            images[m] = attempt(embed_morphism, m)
        return images[m]

    return embedded


def certificate_by_definition(a, b, homs, embedded) -> dict:
    """The certificate of (a, b) by its definition, as the hom-set index replaced it.

    Every morphism is embedded and looked up by equality, every cover
    morphism is reconstructed, and every composite a->b->a and b->a->b is
    composed on both sides, each through the public, validating functions.
    A condition whose check raises has failed.
    """
    fuzzy, cover = homs(a, b)
    reverse, _ = homs(b, a)
    failures = []
    identity_ok = all(
        embedded(identity_fuzzy_morphism(x)) == identity_cover_morphism(embed_object(x))
        for x in (a, b)
    )
    if not identity_ok:
        failures.append("embedding does not send an identity to an identity")
    images = [embedded(m) for m in fuzzy]
    bijection = [cover.index(e) if e in cover else -1 for e in images]
    failures += [
        f"image of fuzzy morphism {i} missing from cover hom-set"
        for i, j in enumerate(bijection)
        if j < 0
    ]
    faithful = len(set(bijection)) == len(bijection)
    if not faithful:
        failures.append("two fuzzy morphisms share one image")

    full = len(set(bijection)) == len(cover) and -1 not in bijection
    roundtrip_ok = True
    reconstructed = {}
    for j, c in enumerate(cover):
        outside = f"cover morphism {j} reconstructs outside the hom-set"
        differs = (
            f"cover morphism {j}: embedding of the reconstructed morphism differs from the input"
        )
        try:
            m = reconstructed[j] = reconstruct_morphism(c, a, b)
            text = None if m in fuzzy else outside
        except ReconstructionMismatch as exc:
            # raised from the validator when R(c) is no morphism, else E(R(c)) is not c
            text = outside if exc.__cause__ else differs
        except ValidationError:  # E(R(c)) is no cover morphism
            text = differs
        if text:
            full = roundtrip_ok = False
            failures.append(text)
    for i, (m, j) in enumerate(zip(fuzzy, bijection)):
        if reconstructed.get(j) != m:
            roundtrip_ok = False
            failures.append(f"round trip differs on fuzzy morphism {i}")

    composition_ok = True
    for m1 in fuzzy:
        for m2 in reverse:
            for outer, inner in ((m2, m1), (m1, m2)):
                composite = attempt(compose_fuzzy_morphisms, outer, inner)
                parts = (embedded(outer), embedded(inner))
                rhs = None if None in parts else attempt(compose_cover_morphisms, *parts)
                if composite is None or rhs is None or embedded(composite) != rhs:
                    composition_ok = False
    if not composition_ok:
        failures.append("embedding does not respect a composition")

    return EmbeddingCertificate(
        source=a,
        target=b,
        fuzzy_homs=tuple(fuzzy),
        cover_homs=tuple(cover),
        bijection=tuple(bijection),
        identity_ok=identity_ok,
        faithful=faithful,
        full=full,
        roundtrip_ok=roundtrip_ok,
        composition_checks=2 * len(fuzzy) * len(reverse),
        composition_ok=composition_ok,
        counterexample=failures[0] if failures else None,
    ).to_json_dict()


def share_covers(patch) -> None:
    """Build each cover once, for the public functions too.

    A cover is a pure function of its object, so only the time changes.
    """
    import fzcover.embedding as embedding

    covers = {}

    def cover_of(fz):
        if fz not in covers:
            covers[fz] = build_cover(fz)
        return covers[fz]

    patch.setattr(embedding, "build_cover", cover_of)


def shape(fz) -> tuple:
    """The shape of a fuzzy subgroup, its group and its ranks, which decides its hom arrays."""
    return fz.group, fz._rank


# sha256 of the pool's certificates in pair order, each as sorted-key JSON,
# as the embedding that validated every morphism again made them
POOL_CERTIFICATES_SHA256 = "d3094832f92193cc448bdfa8678be41c38475ceeda405542f0aa166c58ceb607"


def test_lookup_certifies_like_the_definition_on_a_pool(monkeypatch, pool):
    share_covers(monkeypatch)
    homs, embedded = hom_sets(), embedder()
    cache: dict = {}
    digest = hashlib.sha256()
    checks = 0
    for a in pool:
        for b in pool:
            doc = verify_embedding(a, b, hom_cache=cache).to_json_dict()
            assert doc == certificate_by_definition(a, b, homs, embedded), (a, b)
            assert doc["ok"]
            checks += doc["composition_checks"]
            digest.update(json.dumps(doc, sort_keys=True).encode())
    assert checks == 43352
    assert digest.hexdigest() == POOL_CERTIFICATES_SHA256


def plant_wrong_embedding(patch, wrong, like=None) -> list:
    """Make the fstar array of the embedding of ``wrong`` move one entry, or
    be that of the embedding of ``like``; return the list of the (c1, c2)
    of each `_fstar` call the plant changed.

    The plant matches a morphism by the shapes of its ends and its arrays.
    `_fstar` runs only where a hom-set is searched, on objects the caller
    gave, so the plant fires on the searched pairs of those shapes, and the
    records carried from them keep the wrong embedding; a record of those
    shapes carried from a pair of other shapes of their orbits does not.  It
    sits below the hom arrays: a shared hom_cache keeps the wrong embedding
    for every later pair, and a fresh one builds it again.
    """
    import fzcover.embedding as embedding

    fstar_of = embedding._fstar
    planted_at = (shape(wrong.source), shape(wrong.target), wrong.f, wrong.lam)
    fired = []

    def planted(c1, c2, homs):
        found = fstar_of(c1, c2, homs)
        for i, (f, lam) in enumerate(homs):
            if (shape(c1.source), shape(c2.source), f, lam) != planted_at:
                continue
            fired.append((c1, c2))
            if like is not None:
                found[i] = fstar_of(c1, c2, [(like.f, like.lam)])[0]
            else:
                moved = list(found[i])
                moved[0] = (moved[0] + 1) % len(moved)
                found[i] = tuple(moved)
        return found

    patch.setattr(embedding, "_fstar", planted)
    return fired


def test_a_wrong_embedding_is_found_by_both(monkeypatch, fz_z2, fz_z2_const):
    # Z2 -> const -> Z2 composes to the endomorphism that sends all to e and
    # every value to the top: only the composition check reaches it
    fired = plant_wrong_embedding(
        monkeypatch, validate_fuzzy_morphism(fz_z2, fz_z2, (0, 0), (1, 1))
    )
    doc = verify_embedding(fz_z2, fz_z2_const).to_json_dict()
    assert fired
    assert doc == certificate_by_definition(fz_z2, fz_z2_const, hom_sets(), embedder())
    assert doc["composition_ok"] is False and doc["ok"] is False
    assert doc["counterexample"] == "embedding does not respect a composition"
    assert doc["identity_ok"] and doc["full"] and doc["roundtrip_ok"]


def test_an_embedding_onto_another_listed_morphism_is_found_by_both(
    monkeypatch, fz_z2_const, trivial_fz
):
    # E sends the trivial endomorphism of the constant Z2 where the identity goes
    trivial = validate_fuzzy_morphism(fz_z2_const, fz_z2_const, (0, 0), (0,))
    fired = plant_wrong_embedding(
        monkeypatch, trivial, like=identity_fuzzy_morphism(fz_z2_const)
    )
    homs, embedded = hom_sets(), embedder()
    loop = verify_embedding(fz_z2_const, fz_z2_const).to_json_dict()
    assert fired
    assert loop == certificate_by_definition(fz_z2_const, fz_z2_const, homs, embedded)
    assert loop["counterexample"] == "two fuzzy morphisms share one image"
    assert not (loop["faithful"] or loop["full"] or loop["roundtrip_ok"])
    # through C1 and back is the trivial endomorphism: only the composite sees it
    through = verify_embedding(fz_z2_const, trivial_fz).to_json_dict()
    assert through == certificate_by_definition(fz_z2_const, trivial_fz, homs, embedded)
    assert through["counterexample"] == "embedding does not respect a composition"
    assert through["faithful"] and through["full"] and through["roundtrip_ok"]


def test_a_wrong_identity_is_named(monkeypatch, fz_z2, trivial_fz):
    # no composite of Hom(Z2, C1) and Hom(C1, Z2) is the identity of Z2
    fired = plant_wrong_embedding(monkeypatch, identity_fuzzy_morphism(fz_z2))
    doc = verify_embedding(fz_z2, trivial_fz).to_json_dict()
    assert fired
    assert doc == certificate_by_definition(fz_z2, trivial_fz, hom_sets(), embedder())
    assert doc["identity_ok"] is False and doc["ok"] is False
    assert doc["counterexample"] == "embedding does not send an identity to an identity"
    assert doc["faithful"] and doc["full"] and doc["roundtrip_ok"] and doc["composition_ok"]


def test_an_image_that_fails_the_validator_is_recorded(monkeypatch, fz_z2):
    import fzcover.enumeration as enumeration

    # f sends a, at 1/2, to e, at the top, while lam keeps 1/2: no morphism,
    # and its image sends a class maximum to a non-maximum
    stray = FuzzyMorphism(fz_z2, fz_z2, (0, 0), (0, 1))
    with pytest.raises(MaximaNotPreserved):
        embed_morphism(stray)
    enumerate_all = enumeration.enumerate_fuzzy_morphisms

    def with_stray(source, target, budget, **kw):
        return enumerate_all(source, target, budget, **kw) + [stray]

    monkeypatch.setattr(enumeration, "enumerate_fuzzy_morphisms", with_stray)
    cert = verify_embedding(fz_z2, fz_z2)
    assert not cert.ok and not cert.counts_equal and not cert.full
    assert cert.counterexample == "image of fuzzy morphism 2 missing from cover hom-set"


def test_a_composite_missing_from_its_hom_set_is_recorded(monkeypatch, fz_z2, fz_z2_const):
    import fzcover.enumeration as enumeration

    missing = validate_fuzzy_morphism(fz_z2, fz_z2, (0, 0), (1, 1))
    enumerate_all = enumeration.enumerate_fuzzy_morphisms

    def lacking(source, target, budget, **kw):
        return [m for m in enumerate_all(source, target, budget, **kw) if m != missing]

    monkeypatch.setattr(enumeration, "enumerate_fuzzy_morphisms", lacking)
    cert = verify_embedding(fz_z2, fz_z2_const)
    assert not cert.ok and not cert.composition_ok
    assert cert.counterexample == "embedding does not respect a composition"
    assert cert.identity_ok and cert.faithful and cert.full and cert.roundtrip_ok


def test_an_image_missing_from_a_loop_hom_set_is_recorded(monkeypatch, fz_z2, fz_z2_const):
    import fzcover.enumeration as enumeration

    # the embedding of the composite Z2 -> const -> Z2 must be listed in the
    # cover Hom(Z2, Z2) too
    missing = embed_morphism(validate_fuzzy_morphism(fz_z2, fz_z2, (0, 0), (1, 1)))
    enumerate_all = enumeration.enumerate_cover_morphisms

    def lacking(source, target, budget, **kw):
        return [c for c in enumerate_all(source, target, budget, **kw) if c != missing]

    monkeypatch.setattr(enumeration, "enumerate_cover_morphisms", lacking)
    cert = verify_embedding(fz_z2, fz_z2_const)
    assert not cert.ok and not cert.composition_ok
    assert cert.counterexample == "embedding does not respect a composition"
    assert cert.identity_ok and cert.faithful and cert.full and cert.roundtrip_ok


def test_an_empty_cover_side_of_the_way_back_is_recorded(monkeypatch, fz_z2, fz_z2_const):
    import fzcover.enumeration as enumeration

    # the cover side of Hom(const, Z2) is planted empty while its fuzzy side
    # keeps the one morphism: no a->b->a composite has an image to compose
    back = (embed_object(fz_z2_const), embed_object(fz_z2))
    enumerate_all = enumeration.enumerate_cover_morphisms

    def emptied(source, target, budget, **kw):
        found = enumerate_all(source, target, budget, **kw)
        return [] if (source, target) == back else found

    monkeypatch.setattr(enumeration, "enumerate_cover_morphisms", emptied)
    cert = verify_embedding(fz_z2, fz_z2_const)
    assert not cert.ok and not cert.composition_ok
    assert cert.counterexample == "embedding does not respect a composition"
    assert cert.identity_ok and cert.faithful and cert.full and cert.roundtrip_ok


@pytest.mark.parametrize("side", ["fuzzy", "cover"])
def test_an_identity_missing_from_its_hom_set_is_recorded(monkeypatch, fz_z2, trivial_fz, side):
    import fzcover.enumeration as enumeration

    identity = {
        "fuzzy": identity_fuzzy_morphism(fz_z2),
        "cover": identity_cover_morphism(embed_object(fz_z2)),
    }[side]
    name = f"enumerate_{side}_morphisms"

    def lacking(source, target, budget, search=getattr(enumeration, name), **kw):
        return [m for m in search(source, target, budget, **kw) if m != identity]

    monkeypatch.setattr(enumeration, name, lacking)
    # no composite of Hom(Z2, C1) and Hom(C1, Z2) is the identity of Z2
    doc = verify_embedding(fz_z2, trivial_fz).to_json_dict()
    assert doc["identity_ok"] is False and doc["ok"] is False
    assert doc["counterexample"] == "embedding does not send an identity to an identity"
    assert doc["faithful"] and doc["full"] and doc["roundtrip_ok"] and doc["composition_ok"]


def test_every_hom_set_lists_the_map_to_the_identity(acceptance_pools):
    import fzcover.embedding as embedding

    # x -> e with lam constant at the top is a morphism between any two fuzzy
    # subgroups, so no hom-set is empty and every pair has composites to check
    for pool in acceptance_pools:
        store: dict = {}
        for a in pool:
            for b in pool:
                homs = embedding._homs(store, a, b, DEFAULT_BUDGET)
                to_e = ((b.group.identity,) * a.n, (len(b.chain) - 1,) * len(a.chain))
                assert to_e in homs.fuzzy, (a, b)
                assert homs.image[homs.fuzzy.index(to_e)] >= 0, (a, b)


def test_each_endomorphism_search_has_the_budget(monkeypatch, fz_v4, trivial_fz, orbit):
    import fzcover.enumeration as enumeration

    searched = []
    for name in ("enumerate_fuzzy_morphisms", "enumerate_group_homomorphisms"):

        def recording(source, target, budget, name=name, search=getattr(enumeration, name), **kw):
            searched.append((name, source, target))
            return search(source, target, budget, **kw)

        monkeypatch.setattr(enumeration, name, recording)
    # the orbits of both shapes are found first, from the automorphisms of
    # both groups: those of C1 fit in 7 nodes, and the endomorphism search
    # of V4, which needs 20, gets the whole budget and stops there
    with pytest.raises(BudgetExceeded) as exc:
        verify_embedding(trivial_fz, fz_v4, budget=7)
    assert str(exc.value) == "8 group homomorphism nodes exceed budget 7"
    c1, v4 = trivial_fz.group, fz_v4.group
    assert searched == [
        ("enumerate_group_homomorphisms", c1, c1), ("enumerate_group_homomorphisms", v4, v4)
    ]
    # with 26 nodes each search fits, though together they take more: the
    # largest is the cover search of Hom(fz_v4, fz_v4), searched on the
    # pair's own objects though fz_v4's shape is not the least of its orbit
    assert orbit(fz_v4) != shape(fz_v4)
    searched.clear()
    assert verify_embedding(trivial_fz, fz_v4, budget=26).ok
    assert [(s, t) for name, s, t in searched if name == "enumerate_fuzzy_morphisms"] == [
        (trivial_fz, fz_v4), (fz_v4, trivial_fz), (trivial_fz, trivial_fz), (fz_v4, fz_v4)
    ]
    with pytest.raises(BudgetExceeded):
        verify_embedding(trivial_fz, fz_v4, budget=25)


def recording_searches(patch) -> list[tuple]:
    """Patch both hom-set enumerators to log (side, source, target) per search."""
    import fzcover.enumeration as enumeration

    searched = []
    for side in ("fuzzy", "cover"):
        name = f"enumerate_{side}_morphisms"

        def recording(
            source, target, budget, side=side, search=getattr(enumeration, name), **kw
        ):
            searched.append((side, source, target))
            return search(source, target, budget, **kw)

        patch.setattr(enumeration, name, recording)
    return searched


def test_each_record_is_searched_fuzzy_then_cover_in_pair_order(
    monkeypatch, fz_z2, fz_v4, orbit
):
    # fz_z2's shape is the least of its orbit and fz_v4's is not: either
    # way the records are searched on the pair's own objects
    a, b = fz_z2, fz_v4
    assert orbit(a) == shape(a) and orbit(b) != shape(b)
    ca, cb = build_cover(a).triple, build_cover(b).triple
    in_order = [
        ("fuzzy", a, b), ("cover", ca, cb), ("fuzzy", b, a), ("cover", cb, ca),
        ("fuzzy", a, a), ("cover", ca, ca), ("fuzzy", b, b), ("cover", cb, cb),
    ]
    with monkeypatch.context() as patch:
        searched = recording_searches(patch)
        assert verify_embedding(a, b).ok
    assert searched == in_order
    # an empty Hom(b, a) leaves no composite to check, and changes no search
    import fzcover.enumeration as enumeration

    enumerate_all = enumeration.enumerate_fuzzy_morphisms
    with monkeypatch.context() as patch:
        patch.setattr(
            enumeration,
            "enumerate_fuzzy_morphisms",
            lambda s, t, budget, **kw: [] if (s, t) == (b, a) else enumerate_all(
                s, t, budget, **kw
            ),
        )
        searched = recording_searches(patch)
        cert = verify_embedding(a, b)
    assert searched == in_order
    assert cert.ok and cert.composition_checks == 0


# -- one hom_cache across a pool against one per pair --------------------------------------

def pool_certificates(pool, shared: bool) -> list[dict]:
    """Every ordered pair of the pool, with one hom_cache or a fresh one per pair."""
    cache: dict = {}
    return [
        verify_embedding(a, b, hom_cache=cache if shared else {}).to_json_dict()
        for a in pool
        for b in pool
    ]


def test_a_shared_cache_certifies_like_no_sharing(monkeypatch, pool, orbit):
    with monkeypatch.context() as patch:
        calls = counting_validations(patch)
        shared = pool_certificates(pool, shared=True)
    assert shared == pool_certificates(pool, shared=False)
    assert all(doc["ok"] for doc in shared)
    # one validation per hom-set entry on each side, once per orbit of
    # ordered pairs of shapes (the rest are carried, not searched), and
    # nothing else; the pairs of one orbit have hom-sets of one size
    pairs = [(a, b) for a in pool for b in pool]
    by_orbits = {(orbit(a), orbit(b)): doc for (a, b), doc in zip(pairs, shared)}
    assert len(by_orbits) == 12**2 < len({(shape(a), shape(b)) for a, b in pairs}) == 16**2
    assert calls == {
        "fuzzy": sum(doc["fuzzy_hom_count"] for doc in by_orbits.values()),
        "cover": sum(doc["cover_hom_count"] for doc in by_orbits.values()),
    }


def certify_validating_each_morphism(pool) -> dict:
    """Certify every ordered pair of the pool with one hom_cache, and return it.

    Each morphism of each certificate is validated again between the
    certificate's own objects, or their covers: the validator must return it.
    """
    covers = {fz: build_cover(fz).triple for fz in pool}
    cache: dict = {}
    for a in pool:
        for b in pool:
            cert = verify_embedding(a, b, hom_cache=cache)
            assert cert.ok and cert.source is a and cert.target is b
            for m in cert.fuzzy_homs:
                assert m.source is a and m.target is b
                assert validate_fuzzy_morphism(a, b, m.f, m.lam) == m
            for c in cert.cover_homs:
                assert (c.source, c.target) == (covers[a], covers[b])
                assert validate_cover_morphism(covers[a], covers[b], c.fstar, c.lam) == c
    return cache


def test_each_morphism_is_valid_between_its_own_objects(pool, acceptance_pools):
    for objects in (pool, *acceptance_pools):
        certify_validating_each_morphism(objects)


def test_objects_of_one_shape_keep_their_own_endpoints(z2, fz_z2):
    # one shape, two value sets: the arrays are searched once and shared
    third = validate_fuzzy(z2, [F(1), F(1, 3)])
    assert shape(third) == shape(fz_z2) and third != fz_z2
    assert build_cover(third).triple != build_cover(fz_z2).triple
    cache = certify_validating_each_morphism([fz_z2, third])
    assert [key for key in cache if key[0] == "homs"] == [
        ("homs", *shape(fz_z2), *shape(fz_z2))
    ]


def counting_searches(patch) -> dict:
    """Log each group hom-set search and count each composite check and each
    map onto or from the least shape of an orbit."""
    import fzcover.embedding as embedding
    import fzcover.enumeration as enumeration

    calls = {"group homs": [], "composites": 0, "carries": 0}
    search = enumeration.enumerate_group_homomorphisms
    check, carry = embedding._respects_compositions, embedding._carry

    def searching(source, target, budget):
        calls["group homs"].append((source, target))
        return search(source, target, budget)

    def checking(*arrays):
        calls["composites"] += 1
        return check(*arrays)

    def carrying(*args):
        calls["carries"] += 1
        return carry(*args)

    patch.setattr(enumeration, "enumerate_group_homomorphisms", searching)
    patch.setattr(embedding, "_respects_compositions", checking)
    patch.setattr(embedding, "_carry", carrying)
    return calls


def test_a_shared_cache_searches_each_group_pair_and_checks_each_composite_once(
    monkeypatch, pool, orbit
):
    calls = counting_searches(monkeypatch)
    assert all(doc["ok"] for doc in pool_certificates(pool, shared=True))
    groups = {fz.group for fz in pool}
    assert len(calls["group homs"]) == len(set(calls["group homs"])) == len(groups) ** 2
    # a->b->a once per ordered pair of the orbits of a and b, on the records
    # of the first pair of objects of those orbits, which in pair order is
    # of one shape when the orbits are one; and the maps onto and from the
    # least shape of its orbit once per shape
    shapes, orbits = {shape(fz) for fz in pool}, {orbit(fz) for fz in pool}
    assert len(orbits) == 12 < len(shapes) == 16 < len(pool)
    assert calls["composites"] == len(orbits) ** 2
    assert calls["carries"] == 2 * len(shapes)


def test_a_fresh_cache_per_pair_searches_and_checks_for_each_pair(monkeypatch, pool, orbit):
    pairs = [(a, b) for a in pool[::4] for b in pool[::4]]
    # within one pair, a group pair, an ordered pair of shapes or a shape met
    # twice is searched, checked or carried once; the checks read the pair's
    # own records, so two shapes of one orbit are checked both ways, and the
    # shapes carried are those of the two objects alone
    group_searches = sum(
        len({(g, h) for g in (a.group, b.group) for h in (a.group, b.group)}) for a, b in pairs
    )
    composite_checks = sum(
        len({(shape(a), shape(b)), (shape(b), shape(a))}) for a, b in pairs
    )
    carries = sum(2 * len({shape(a), shape(b)}) for a, b in pairs)
    assert (composite_checks, carries) == (188, 376)
    for fresh in (dict, lambda: None):
        with monkeypatch.context() as patch:
            calls = counting_searches(patch)
            assert all(verify_embedding(a, b, hom_cache=fresh()).ok for a, b in pairs)
        assert len(calls["group homs"]) == group_searches
        assert calls["composites"] == composite_checks
        assert calls["carries"] == carries


def test_a_shared_cache_certifies_the_acceptance_pools_like_a_fresh_one(acceptance_pools):
    # a fresh dict per pair for a quarter of each pool against each other quarter
    for pool in acceptance_pools:
        cache: dict = {}
        shared = {
            (a, b): verify_embedding(a, b, hom_cache=cache).to_json_dict()
            for a in pool
            for b in pool
        }
        assert all(doc["ok"] for doc in shared.values())
        for a in pool[::4]:
            for b in pool[::4]:
                assert verify_embedding(a, b, hom_cache={}).to_json_dict() == shared[a, b]


def test_a_shared_cache_searches_each_cover_orbit_pair_once(monkeypatch, pool, orbit):
    import fzcover.enumeration as enumeration

    # the orbit of a shape, its group and its ranks, under the group's
    # automorphisms, read off the covers of the pool, the only ones searched
    orbit_of = {build_cover(fz).triple: orbit(fz) for fz in pool}
    searched = []
    search = enumeration.enumerate_cover_morphisms

    def recording(source, target, budget):
        searched.append((orbit_of[source], orbit_of[target]))
        return search(source, target, budget)

    monkeypatch.setattr(enumeration, "enumerate_cover_morphisms", recording)
    assert all(doc["ok"] for doc in pool_certificates(pool, shared=True))
    orbits = set(orbit_of.values())
    assert len(orbits) == 12 < len({shape(fz) for fz in pool}) == 16
    assert len(searched) == len(set(searched)) == len(orbits) ** 2


def test_a_shared_cache_searches_each_fuzzy_orbit_pair_once(monkeypatch, pool, orbit):
    log = recording_searches(monkeypatch)
    assert all(doc["ok"] for doc in pool_certificates(pool, shared=True))
    searched = [(orbit(s), orbit(t)) for side, s, t in log if side == "fuzzy"]
    orbits = {orbit(fz) for fz in pool}
    assert len(orbits) == 12 < len({shape(fz) for fz in pool}) == 16
    assert len(searched) == len(set(searched)) == len(orbits) ** 2


def test_a_pool_leaves_only_the_known_entry_kinds(pool):
    # a new memo in the caller's dict needs this test and the README changed
    cache: dict = {}
    for a in pool:
        for b in pool:
            verify_embedding(a, b, hom_cache=cache)
    assert {key[0] for key in cache} == {"cover", "homs", "group homs", "orbit"}


def test_a_shared_cache_decides_each_verdict_once_then_reads_one_record(monkeypatch, pool):
    import fzcover.embedding as embedding

    calls = dict.fromkeys(("_verdict", "_homs"), 0)
    for name in calls:

        def counting(*args, name=name, call=getattr(embedding, name)):
            calls[name] += 1
            return call(*args)

        monkeypatch.setattr(embedding, name, counting)
    cache: dict = {}

    def certify_all() -> list[dict]:
        return [verify_embedding(a, b, hom_cache=cache).to_json_dict() for a in pool for b in pool]

    first = certify_all()
    shapes = {shape(fz) for fz in pool}
    assert len(shapes) == 16 < len(pool)
    assert calls["_verdict"] == len(shapes) ** 2
    assert all(record.verdict for key, record in cache.items() if key[0] == "homs")
    # every verdict kept: a pair reads the record of Hom(a, b) and nothing else
    calls.update(_verdict=0, _homs=0)
    assert certify_all() == first
    assert calls == {"_verdict": 0, "_homs": len(pool) ** 2}


def test_a_budget_failure_stores_no_group_hom_set(fz_v4, trivial_fz):
    cache: dict = {}
    with pytest.raises(BudgetExceeded):
        verify_embedding(trivial_fz, fz_v4, budget=7, hom_cache=cache)
    # the automorphisms of C1 fit in 7 nodes and those of V4 do not, so the
    # hom-sets wait on the orbits of their shapes
    c1 = trivial_fz.group
    searched = {key[1:] for key in cache if key[0] == "group homs"}
    assert searched == {(c1, c1)}


def test_a_wrong_embedding_is_named_alike_with_and_without_sharing(monkeypatch, pool):
    # the endomorphism of a two-level C2 that sends all to e and every value to the top
    fz = next(fz for fz in pool if fz.n == 2 and len(fz.chain) == 2)
    fired = plant_wrong_embedding(monkeypatch, validate_fuzzy_morphism(fz, fz, (0, 0), (1, 1)))
    shared = pool_certificates(pool, shared=True)
    assert fired
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


def test_a_budget_failure_leaves_the_shared_cache_sound(fz_v4, trivial_fz, orbit):
    cache: dict = {}
    # a pair of constant subgroups of V4 leaves the automorphisms of V4 kept;
    # then, with v the least shape of fz_v4's orbit, the hom-sets of (C1,
    # fz_v4) and (fz_v4, C1), each searched on the pair's own objects and
    # carried to (C1, v) and (v, C1), and Hom(C1, C1) fit in 7 nodes, and
    # the cover search of Hom(fz_v4, fz_v4) does not
    constant = validate_fuzzy(fz_v4.group, [F(1)] * 4)
    assert verify_embedding(constant, constant, hom_cache=cache).ok
    with pytest.raises(BudgetExceeded) as exc:
        verify_embedding(trivial_fz, fz_v4, budget=7, hom_cache=cache)
    assert str(exc.value) == "8 monoid homomorphism nodes exceed budget 7"
    # a verdict is kept only once all four records it reads are found
    primed = ("homs", *shape(constant), *shape(constant))
    found = {key for key in cache if key[0] == "homs" and key != primed}
    c1, v = shape(trivial_fz), orbit(fz_v4)
    assert v != shape(fz_v4)
    assert found == {
        ("homs", *c1, *v), ("homs", *c1, *shape(fz_v4)),
        ("homs", *v, *c1), ("homs", *shape(fz_v4), *c1), ("homs", *c1, *c1),
    }
    assert all(cache[key].verdict is None for key in found)
    for a, b in ((trivial_fz, fz_v4), (fz_v4, trivial_fz), (fz_v4, fz_v4)):
        expected = verify_embedding(a, b).to_json_dict()
        assert verify_embedding(a, b, hom_cache=cache).to_json_dict() == expected


def test_hom_caches_share_nothing(monkeypatch, fz_z2):
    planted_cache: dict = {}
    with monkeypatch.context() as patch:
        fired = plant_wrong_embedding(
            patch, validate_fuzzy_morphism(fz_z2, fz_z2, (0, 0), (1, 1))
        )
        assert not verify_embedding(fz_z2, fz_z2, hom_cache=planted_cache).ok
        assert fired
    # the wrong embedding is kept in the dict it was made in, and only there
    assert not verify_embedding(fz_z2, fz_z2, hom_cache=planted_cache).ok
    assert verify_embedding(fz_z2, fz_z2, hom_cache={}).ok
    assert verify_embedding(fz_z2, fz_z2).ok


def test_a_failed_round_trip_is_recorded(monkeypatch, fz_z2_const):
    # the moved entry sends the pair over e to the pair over a, so the image
    # is no homomorphism and is not listed: fuzzy morphism 0 has no round trip
    fired = plant_wrong_embedding(
        monkeypatch, validate_fuzzy_morphism(fz_z2_const, fz_z2_const, (0, 0), (0,))
    )
    cert = verify_embedding(fz_z2_const, fz_z2_const)
    assert fired
    assert not cert.ok and not cert.roundtrip_ok and not cert.full
    assert cert.counterexample == "image of fuzzy morphism 0 missing from cover hom-set"
