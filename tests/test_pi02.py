import re
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from powerspace.core import (
    FiniteSpace,
    SpaceMap,
    antichain,
    bits,
    enumerate_spaces,
    mask_of,
    set_label,
    sierpinski,
    space_from_poset,
    subspace,
)
from powerspace.errors import NotEmbedding, PresentationMismatch
from powerspace.powerspaces import Powers
from powerspace.pi02 import (
    Pi02Presentation,
    _first_unembedded,
    eta_image_characterizations,
    lens_pi02,
    lower_embedding_range,
    pi02_eval,
    presentation_for_subset,
    upper_embedding_range,
    validate_embedding,
)

from oracles import labelled_spaces, three_test_embedding

S = sierpinski()
D2 = antichain(2, names=("a", "b"))


def test_eval_examples():
    assert pi02_eval(Pi02Presentation(S, ((0b10, 0),))).mask == 0b01
    assert pi02_eval(Pi02Presentation(S, ())).mask == 0b11
    assert pi02_eval(Pi02Presentation(D2, ((0b11, 0b01),))).mask == 0b01


def test_presentation_needs_open_pairs():
    with pytest.raises(ValueError):
        Pi02Presentation(S, ((0b01, 0),))


def test_roundtrip_every_subset():
    for sp in enumerate_spaces(3):
        for mask in range(1 << sp.n):
            assert pi02_eval(presentation_for_subset(sp, mask)).mask == mask


@st.composite
def space_and_pairs(draw):
    n = draw(st.integers(1, 4))
    covers = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] < p[1]),
        max_size=4,
    ))
    sp = space_from_poset([f"p{i}" for i in range(n)], covers)
    opens = sp.opens()
    k = draw(st.integers(0, 3))
    pairs = tuple(
        (opens[draw(st.integers(0, len(opens) - 1))], opens[draw(st.integers(0, len(opens) - 1))])
        for _ in range(k)
    )
    return sp, pairs


@given(space_and_pairs(), st.integers(0, 200))
@settings(max_examples=120, deadline=None)
def test_eval_antitone_in_added_pairs(sp_pairs, pick):
    sp, pairs = sp_pairs
    opens = sp.opens()
    u = opens[pick % len(opens)]
    v = opens[(pick // 7) % len(opens)]
    before = pi02_eval(Pi02Presentation(sp, pairs)).mask
    after = pi02_eval(Pi02Presentation(sp, pairs + ((u, v),))).mask
    assert not (after & ~before)


def test_validate_embedding_rejects():
    collapse = SpaceMap(D2, S, (1, 1))
    with pytest.raises(NotEmbedding):
        validate_embedding(collapse)
    # injective and continuous but not an embedding: discrete pair into the chain
    flatten = SpaceMap(D2, S, (0, 1))
    with pytest.raises(NotEmbedding, match=r"^up\(a\) is not the preimage of up\(e\(a\)\)$"):
        validate_embedding(flatten)


def _is_embedding_literally(f: SpaceMap) -> bool:
    # continuity and relative openness of every open's image, each by
    # scanning the open families
    dom_opens, cod_opens, image = set(f.domain.opens()), f.codomain.opens(), mask_of(f.table)
    if any(mask_of(i for i, v in enumerate(f.table) if w >> v & 1) not in dom_opens for w in cod_opens):
        return False
    return all(any(mask_of(f.table[i] for i in bits(w)) == w2 & image for w2 in cod_opens) for w in dom_opens)


def test_validate_embedding_matches_the_literal_scan():
    spaces = labelled_spaces(3)
    checked = embeddings = 0
    for dom in spaces:
        for cod in spaces:
            for table in permutations(range(cod.n), dom.n):
                f = SpaceMap(dom, cod, table)
                literal = _is_embedding_literally(f)
                try:
                    validate_embedding(f)
                except NotEmbedding:
                    assert not literal, (dom, cod, table)
                else:
                    assert literal, (dom, cod, table)
                checked += 1
                embeddings += literal
    assert (checked, embeddings) == (2614, 322)


def test_validate_embedding_agrees_with_the_three_tests_on_every_small_map():
    # every table between the non-empty labelled spaces of at most 3
    # points; a rejection names the point _first_unembedded returns
    spaces = [sp for sp in labelled_spaces(3) if sp.n]
    checked = embeddings = 0
    for dom in spaces:
        for cod in spaces:
            for table in product(range(cod.n), repeat=dom.n):
                f = SpaceMap(dom, cod, table)
                literal = three_test_embedding(f)
                try:
                    validate_embedding(f)
                except NotEmbedding as exc:
                    x = dom.names[_first_unembedded(f)]
                    assert not literal and str(exc) == f"up({x}) is not the preimage of up(e({x}))", (dom, cod, table)
                else:
                    assert literal, (dom, cod, table)
                checked += 1
                embeddings += literal
    assert (checked, embeddings) == (10838, 298)


def test_presentation_mismatch():
    sub, emb = subspace(S, 0b10)
    wrong = presentation_for_subset(S, 0b01)
    with pytest.raises(PresentationMismatch):
        lower_embedding_range(emb, wrong, Powers(sub).A, Powers(S).A)


def test_embedding_ranges_example():
    sub, emb = subspace(S, 0b10)
    pres = Pi02Presentation(S, ((0b11, 0b10),))
    psub, ps = Powers(sub), Powers(S)
    assert lower_embedding_range(emb, pres, psub.A, ps.A).holds
    assert upper_embedding_range(emb, pres, psub.K, ps.K).holds


def test_embedding_ranges_check_their_constructions():
    sub, emb = subspace(S, 0b10)
    pres = Pi02Presentation(S, ((0b11, 0b10),))
    psub, ps = Powers(sub), Powers(S)
    with pytest.raises(ValueError):
        lower_embedding_range(emb, pres, psub.K, ps.K)
    with pytest.raises(ValueError):
        upper_embedding_range(emb, pres, psub.A, ps.A)
    with pytest.raises(ValueError):  # the ambient construction over the subspace
        lower_embedding_range(emb, pres, psub.A, psub.A)


def test_embedding_ranges_identity():
    sub, emb = subspace(D2, 0b11)
    pres = Pi02Presentation(D2, ())
    v = lower_embedding_range(emb, pres, Powers(sub).A, Powers(D2).A)
    assert v.holds and v.info["range"] == 4


def test_embedding_ranges_exhaustive():
    for ambient in enumerate_spaces(3):
        pw = Powers(ambient)
        for mask in range(1 << ambient.n):
            sub, emb = subspace(ambient, mask)
            pres = presentation_for_subset(ambient, mask)
            psub = Powers(sub)
            assert lower_embedding_range(emb, pres, psub.A, pw.A).holds
            assert upper_embedding_range(emb, pres, psub.K, pw.K).holds


def test_embedding_ranges_on_labelled_spaces():
    # every position of a subspace inside its ambient order, for the
    # lower range quantified over the ambient up-sets
    for ambient in labelled_spaces(3):
        pw = Powers(ambient)
        for mask in range(1 << ambient.n):
            sub, emb = subspace(ambient, mask)
            pres = presentation_for_subset(ambient, mask)
            psub = Powers(sub)
            assert lower_embedding_range(emb, pres, psub.A, pw.A).holds
            assert upper_embedding_range(emb, pres, psub.K, pw.K).holds


def test_lens_identification():
    for sp in enumerate_spaces(3):
        v = lens_pi02(Powers(sp))
        assert v.holds
    assert lens_pi02(Powers(S)).info["lens_pairs"] == 4
    assert lens_pi02(Powers(D2)).info["lens_pairs"] == 4


def test_lens_pi02_names_each_lens_whose_order_row_is_wrong():
    # every single-bit corruption of every row of L(X)'s order: the first
    # lens whose row is not its product-order row is the flipped one
    flips = 0
    for sp in labelled_spaces(3):
        pw = Powers(sp)
        space = pw.L.space
        up = space.up
        for i, j in product(range(space.n), repeat=2):
            object.__setattr__(space, "up", up[:i] + (up[i] ^ 1 << j,) + up[i + 1:])
            v = lens_pi02(pw)
            assert not v.holds and v.witness == {"failure": "subspace order differs", "pair": space.names[i]}
            flips += 1
        object.__setattr__(space, "up", up)
        assert lens_pi02(pw).holds
    assert flips == 1179


def test_lens_pi02_fails_when_a_lens_is_missing():
    for sp in labelled_spaces(3):
        pw = Powers(sp)
        object.__setattr__(pw.L, "extents", pw.L.extents[:-1])
        v = lens_pi02(pw)
        assert not v.holds and v.witness == {"failure": "condition set differs from the convex construction"}


def test_lens_pi02_names_the_least_pair_a_wrong_closure_moves():
    # with a closure that adds the first point to every non-empty set,
    # the lens pairs by definition differ from those by the two
    # implications, which are the lenses, unless that point lies below
    # every other; the witness is the least pair of the difference,
    # computed here from the definition
    failures = 0
    for sp in labelled_spaces(3):
        x = FiniteSpace(sp.names, sp.up)  # a copy: the labelled spaces are shared
        pw = Powers(x)
        lenses = set(pw.L.extents)
        closure = x.closure_mask
        object.__setattr__(x, "closure_mask", lambda m: closure(m) | 1 if m else 0)
        closed = [x.full_mask ^ u for u in x.opens()]
        defined = {
            (a, k)
            for a in closed
            for k in x.opens()
            if x.closure_mask(a & k) == a and x.saturation_mask(a & k) == k
        }
        v = lens_pi02(pw)
        if defined == lenses:
            assert v.holds
            continue
        a, k = min(defined ^ lenses)
        assert not v.holds and v.witness == {"pair": (set_label(x.names, a), set_label(x.names, k))}
        failures += 1
    assert failures == 18


def test_eta_image_characterizations():
    for sp in enumerate_spaces(4):
        assert eta_image_characterizations(Powers(sp)).holds


def test_presentation_serialization():
    pres = presentation_for_subset(S, 0b01)
    data = pres.to_json()
    again = Pi02Presentation.from_json(S, data)
    assert again == pres


@pytest.mark.parametrize("entry", [[-1, 0], [0, 7], [0]])
def test_presentation_from_json_rejects_bad_entries(entry):
    # the Sierpinski space has three opens, indexed 0 to 2
    with pytest.raises(ValueError, match=rf"^{re.escape(repr(entry))} is not a pair of open indices$"):
        Pi02Presentation.from_json(S, {"pairs": [entry]})


@pytest.mark.parametrize("data", [{}, {"pairs": 5}, []])
def test_presentation_from_json_rejects_anything_but_an_object_with_a_list(data):
    with pytest.raises(ValueError, match=r"^a presentation must be an object with a list of 'pairs'$"):
        Pi02Presentation.from_json(S, data)


@pytest.mark.parametrize("mask", [0b100, -1])
def test_presentation_for_subset_rejects_a_mask_outside_the_space(mask):
    with pytest.raises(ValueError, match=rf"^mask {mask} is not a subset of the 2 points$"):
        presentation_for_subset(S, mask)


def _first_order_mismatch(f: SpaceMap):
    # the double loop: the first i with some j where i <= j and
    # f(i) <= f(j) disagree; with none, f is injective (two points with
    # one image would disagree one way round) and an order embedding
    for i in range(f.domain.n):
        for j in range(f.domain.n):
            if f.domain.leq(i, j) != f.codomain.leq(f.table[i], f.table[j]):
                return i
    return None


def test_row_test_matches_the_double_loop_on_every_small_map():
    spaces = labelled_spaces(3)
    checked = 0
    for dom in spaces:
        for cod in spaces:
            for table in product(range(cod.n), repeat=dom.n):
                f = SpaceMap(dom, cod, table)
                assert _first_unembedded(f) == _first_order_mismatch(f), (dom, cod, table)
                checked += 1
    assert checked > 10_000
