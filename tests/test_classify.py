"""Golden classification of quartic even-set codes, mu = 6..16."""

import hashlib
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nodalcodes import classify as classify_mod
from nodalcodes.classify import (
    ClassificationTable,
    admissible_words_ext,
    classify_quartic_codes,
    render_table,
)
from nodalcodes.codes import (
    STRICT,
    WEAK,
    EvenSetCode,
    EvenSetWord,
    canonical_form,
    span_words,
)
from nodalcodes.errors import DomainError
from nodalcodes.linalg import bit_rref
from canonical_oracle import canonical_encoding
from classify_brute import class_encodings
from classify_oracle import enumerate_admissible as per_word_enumeration
from permutation_oracle import (
    apply_node_permutation,
    column_transpositions,
    popcount_orbit_representatives,
    searched_coset_representatives,
    searched_orbit_representatives,
)
from test_codes import _griesmer_ok

# the complete table: per mu the set of (dim, profile) rows
EXPECTED = {
    6: {(1, "[6,1,{6_1}]")},
    7: {(1, "[7,1,{6_1}]")},
    8: {(1, "[8,1,{6_1}]"), (1, "[8,1,{8_1}]")},
    9: {(1, "[9,1,{6_1}]"), (1, "[9,1,{8_1}]")},
    10: {
        (1, "[10,1,{6_1}]"),
        (1, "[10,1,{8_1}]"),
        (1, "[10,1,{10_1}]"),
        (2, "[10,2,{6_2,8}]"),
    },
    11: {
        (1, "[11,1,{6_1}]"),
        (1, "[11,1,{8_1}]"),
        (1, "[11,1,{10_1}]"),
        (2, "[11,2,{6_2,8}]"),
    },
    12: {
        (2, "[12,2,{6_1,8_1,10}]"),
        (2, "[12,2,{8_2}]"),
        (3, "[12,3,{6_3,8}]"),
        (2, "[12,2,{6_2,8}]"),
    },
    13: {(3, "[13,3,{6_3,8}]"), (3, "[13,3,{6_3,8,10}]")},
    14: {(4, "[14,4,{6_4,8,10}]")},
    15: {(5, "[15,5,{6_5,8,10}]")},
    16: {(6, "[16,6,{6_6,8,10,16}]")},
}

EXPECTED_COUNTS = {6: 1, 7: 1, 8: 2, 9: 2, 10: 4, 11: 4, 12: 4, 13: 2, 14: 1, 15: 1, 16: 1}


def test_full_golden_table(classification_tables):
    for mu, table in classification_tables.items():
        got = {(e.dim, e.profile) for e in table.entries}
        assert got == EXPECTED[mu], f"mu={mu}: {sorted(got)}"
        assert len(table.entries) == EXPECTED_COUNTS[mu]


def test_uniqueness_for_large_mu(classification_tables):
    for mu in (14, 15, 16):
        assert len(classification_tables[mu].entries) == 1


def _nonzero_words(code):
    return [EvenSetWord.from_ext(code.mu, w) for w in code.words_ext() if w]


def test_sixteen_node_code_contains_the_full_support_word(classification_tables):
    (entry,) = classification_tables[16].entries
    weights = {w.weight for w in _nonzero_words(entry.code)}
    assert 16 in weights
    full = [w for w in _nonzero_words(entry.code) if w.weight == 16]
    assert len(full) == 1 and full[0].parity == STRICT


def test_small_mu_empty():
    for mu in (1, 2, 3, 4, 5):
        table = classify_quartic_codes(mu)
        assert table.entries == ()


def test_domain_errors():
    # a bool is an int but not a node count; a float or a string is neither
    for mu in (0, 17, -1, True, False, 16.0, 12.5, "12", None):
        with pytest.raises(DomainError):
            classify_quartic_codes(mu)


# the nonzero even sets a nodal quartic allows
ADMISSIBLE = {(6, WEAK), (10, WEAK), (8, STRICT), (16, STRICT)}


def test_every_word_admissible_exhaustively(classification_tables):
    for table in classification_tables.values():
        for entry in table.entries:
            for w in _nonzero_words(entry.code):
                assert (w.weight, w.parity) in ADMISSIBLE


def test_entries_pairwise_non_isomorphic(classification_tables):
    for table in classification_tables.values():
        digests = [canonical_form(e.code) for e in table.entries]
        assert len(digests) == len(set(digests))


def test_basis_regenerates_the_code(classification_tables):
    for table in classification_tables.values():
        for entry in table.entries:
            regenerated = {w for w in entry.code.words_ext() if w}
            assert len(regenerated) == 2**entry.dim - 1


def test_mu12_no_code_mixes_two_strict_eights_with_a_weak_ten(classification_tables):
    # the linear system for a weight-10 word over a dim-2 all-strict code is
    # unsolvable at twelve nodes, so no emitted code shows that pattern
    for entry in classification_tables[12].entries:
        enum = entry.enumerator
        if enum.get((8, STRICT), 0) >= 3:  # dim-2 strict subcode present
            assert enum.get((10, WEAK), 0) == 0


def test_mu14_weight_six_count(classification_tables):
    (entry,) = classification_tables[14].entries
    assert entry.enumerator[(6, WEAK)] == 6
    assert entry.enumerator[(10, WEAK)] == 2


def _min_weight(words):
    return min(w.weight for w in words)


def test_every_searched_code_satisfies_griesmer(audited_classification_tables):
    # every code the search meets, kept or excluded by the dimension
    # bounds, is a genuine linear code, so it and its strictly even
    # subcode obey the Griesmer bound
    for mu, table in audited_classification_tables.items():
        for entry in table.entries + table.excluded:
            words = _nonzero_words(entry.code)
            assert _griesmer_ok(mu, entry.dim, _min_weight(words))
            strict = [w for w in words if w.parity == STRICT]
            if strict:
                k_strict = entry.code.strict_dim()
                assert len(strict) == 2**k_strict - 1
                assert _griesmer_ok(mu, k_strict, _min_weight(strict))


def _first_per_packed_key(candidates, basis, mu):
    # the first candidate of each word orbit, keyed by _orbit_tables
    lo, hi, half = classify_mod._orbit_tables(basis, mu)
    reps = {}
    for w in candidates:
        reps.setdefault(lo[w & (1 << half) - 1] + hi[w >> half], w)
    return list(reps.values())


def test_orbit_key_matches_transposition_orbit_search(monkeypatch):
    # every basis the search extends: the packed orbit key keeps exactly the
    # candidates the popcount-tuple key keeps, and at mu <= 13 exactly those
    # an explicit orbit search under the transpositions of identical columns
    # keeps; the coset pass over all candidates returns what it returns
    # over those word-orbit representatives
    calls = []
    reduce = classify_mod._coset_representatives

    def recording(candidates, basis, mu):
        reps = reduce(candidates, basis, mu)
        calls.append((candidates, basis, mu, reps))
        return reps

    monkeypatch.setattr(classify_mod, "_coset_representatives", recording)
    for mu in range(6, 17):
        classify_quartic_codes(mu)
    assert {mu for _, _, mu, _ in calls} == set(range(6, 17))
    shrunk = False
    for candidates, basis, mu, reps in calls:
        orbit_reps = _first_per_packed_key(candidates, basis, mu)
        shrunk |= len(orbit_reps) < len(candidates)
        assert orbit_reps == popcount_orbit_representatives(candidates, basis, mu)
        if mu <= 13:
            perms = column_transpositions(EvenSetCode(mu, basis))
            assert orbit_reps == searched_orbit_representatives(candidates, perms, mu)
        assert reduce(orbit_reps, basis, mu) == reps
    assert shrunk


@st.composite
def _orbit_inputs(draw, max_mu=16):
    # a random basis and words, with images of those words under random
    # permutations inside each class of identical columns inserted
    # anywhere, so orbits repeat and a later member may come first
    mu = draw(st.integers(1, max_mu))
    top = (1 << mu + 1) - 1
    basis = tuple(draw(st.lists(st.integers(0, top), max_size=4)))
    dense = st.integers(0, top).map(lambda x: x | x >> 1)
    words = draw(st.lists(st.one_of(st.integers(0, top), dense), min_size=1, max_size=12))
    classes: dict[tuple[int, ...], list[int]] = {}
    for c in range(mu):
        classes.setdefault(tuple((g >> c) & 1 for g in basis), []).append(c)
    rng = draw(st.randoms(use_true_random=False))
    candidates = list(words)
    for _ in range(draw(st.integers(0, 12))):
        perm = list(range(mu))
        for cols in classes.values():
            for a, b in zip(cols, rng.sample(cols, len(cols))):
                perm[a] = b
        image = apply_node_permutation(rng.choice(words), tuple(perm), mu)
        candidates.insert(rng.randrange(len(candidates) + 1), image)
    return candidates, basis, mu


@settings(deadline=None, max_examples=300)
@given(_orbit_inputs())
def test_orbit_key_matches_the_popcount_key(inputs):
    orbit_reps = _first_per_packed_key(*inputs)
    assert orbit_reps == popcount_orbit_representatives(*inputs)
    # one coset pass drops every later member of a word orbit by itself
    candidates, basis, mu = inputs
    reps = classify_mod._coset_representatives(candidates, basis, mu)
    assert reps == classify_mod._coset_representatives(orbit_reps, basis, mu)


@pytest.mark.parametrize("mu", [8, 16])
@pytest.mark.parametrize("reverse", [False, True])
def test_orbit_key_slot_holds_a_count_of_mu(mu, reverse):
    # basis (1 << mu,): every support column is 0, so all mu columns form
    # one class, and the all-ones support fills its slot with mu, the
    # largest count a slot of mu.bit_length() bits must hold; one bit less
    # and it would carry into the parity slot, meeting the parity-only word
    full = (1 << mu) - 1
    low = full >> mu // 2
    supports = (full, full >> 1, full ^ low, low, 0)
    candidates = [s | parity for parity in (0, 1 << mu) for s in supports]
    if reverse:
        candidates.reverse()
    reps = _first_per_packed_key(candidates, (1 << mu,), mu)
    # the two half-weight supports share an orbit, with either parity
    assert len(reps) == 8
    assert reps == popcount_orbit_representatives(candidates, (1 << mu,), mu)


def _scratch_candidates(basis, mu, admissible):
    # every admissible word outside the span whose sum with each nonzero
    # span word is admissible, filtered from the full list
    allowed = set(admissible)
    span = {0}
    for g in basis:
        span |= {s ^ g for s in span}
    candidates = [c for c in admissible if c not in span]
    for s in span - {0}:
        candidates = [c for c in candidates if c ^ s in allowed]
    return candidates


def test_inherited_candidates_match_a_filter_from_scratch(monkeypatch):
    # each basis inherits its candidate words from its parent; the list it
    # hands to the coset reduction equals the full filter, order included.
    # Checked inside the hook, so a wrong list fails before the search
    # grows from it.
    admissible = {mu: admissible_words_ext(mu) for mu in range(6, 17)}
    calls = []
    reduce = classify_mod._coset_representatives

    def checking(candidates, basis, mu):
        assert candidates == _scratch_candidates(basis, mu, admissible[mu]), (mu, basis)
        calls.append((basis, mu))
        return reduce(candidates, basis, mu)

    monkeypatch.setattr(classify_mod, "_coset_representatives", checking)
    for mu in range(6, 17):
        classify_quartic_codes(mu)
    assert {mu for _, mu in calls} == set(range(6, 17))
    assert max(len(basis) for basis, _ in calls) == 6


def test_enumeration_matches_the_per_word_loop():
    # one child per orbit of cosets, its basis built from its parent's and
    # its parent's marks built on demand: the same classes, reached by the
    # same spans in the same order, as trying every word-orbit
    # representative with an elimination each
    for mu in range(6, 17):
        assert classify_mod._enumerate_admissible(mu) == per_word_enumeration(mu), mu


# labeled codes whose nonzero words are all admissible, by dimension 1, 2, ...
LABELED_COUNTS = {
    6: [1],
    7: [7],
    8: [29],
    9: [93],
    10: [256, 1575],
    11: [638, 17325],
}


# mu = 11 enumerates 17 963 labeled codes in several seconds: run with --slow
@pytest.mark.parametrize("mu", [*range(6, 11), pytest.param(11, marks=pytest.mark.slow)])
def test_every_labeled_code_has_its_class_in_the_table(mu):
    # the brute force uses no symmetry: its classes are exactly the
    # classifier's, one table code (kept or excluded) per class
    counts, encodings = class_encodings(mu)
    assert counts == LABELED_COUNTS[mu]
    table = classify_quartic_codes(mu, audit=True)
    codes = [e.code for e in table.entries + table.excluded]
    assert sorted(map(canonical_encoding, codes)) == sorted(encodings)


def test_canonical_search_count_is_pinned(monkeypatch):
    # the coset reduction's saving as a count: a weaker key (one that
    # misses images under identical columns, or is not constant on a
    # coset) keeps the answers but searches more
    calls = Counter()
    search = classify_mod._canonical_form

    def counting(mu, basis, memo):
        calls[mu] += 1
        return search(mu, basis, memo)

    monkeypatch.setattr(classify_mod, "_canonical_form", counting)
    for mu in range(6, 17):
        classify_mod._enumerate_admissible(mu)
    assert sum(calls.values()) == 352
    calls.clear()
    for mu in range(6, 17):
        per_word_enumeration(mu)
    assert sum(calls.values()) == 814


def test_orbit_tables_are_built_once_per_parent(monkeypatch):
    # one coset pass per parent reads the packed keys, so the subset-sum
    # tables are built once for each of the 87 codes the search extends;
    # a second pass over the same basis builds them again
    calls = []
    build = classify_mod._orbit_tables

    def counting(basis, mu):
        calls.append((mu, basis))
        return build(basis, mu)

    monkeypatch.setattr(classify_mod, "_orbit_tables", counting)
    found = [
        (mu, basis)
        for mu in range(6, 17)
        for _, basis in classify_mod._enumerate_admissible(mu)
    ]
    assert len(calls) == 87
    assert sorted(calls) == sorted(found)


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_extension_matches_bit_rref(data):
    # a reduced basis of words of up to 17 bits (mu = 16 in extended
    # encoding) and a word outside its span
    bits = data.draw(st.integers(1, 17))
    word = st.integers(1, (1 << bits) - 1)
    basis = tuple(bit_rref(data.draw(st.lists(word, max_size=bits - 1))))
    w = data.draw(word.filter(lambda w: len(bit_rref(basis + (w,))) > len(basis)))
    r, child = classify_mod._extend(basis, w)
    assert child == tuple(bit_rref(basis + (w,)))
    # r lies in w + span, so it filters the child's candidates as w does
    assert tuple(bit_rref(basis + (r ^ w,))) == basis


@st.composite
def _coset_inputs(draw):
    # orbit inputs at mu <= 10 with translates by span words inserted
    # anywhere, so one coset recurs under several of its words
    candidates, basis, mu = draw(_orbit_inputs(max_mu=10))
    span = span_words(basis)
    assume(1 << mu not in span)
    rng = draw(st.randoms(use_true_random=False))
    for _ in range(draw(st.integers(0, 8))):
        translate = rng.choice(candidates) ^ rng.choice(span)
        candidates.insert(rng.randrange(len(candidates) + 1), translate)
    return candidates, basis, mu


@settings(deadline=None, max_examples=200)
@given(_coset_inputs())
def test_coset_key_matches_a_coset_orbit_search(inputs):
    # the key is constant on each coset and on its images under identical
    # columns (else a translate or an image would be kept), and it parts
    # cosets no transposition of identical columns maps onto each other
    # (else one would be lost)
    candidates, basis, mu = inputs
    perms = column_transpositions(EvenSetCode(mu, basis))
    reps = classify_mod._coset_representatives(candidates, basis, mu)
    assert reps == searched_coset_representatives(candidates, span_words(basis), perms, mu)


def test_every_dropped_coset_is_the_image_of_a_kept_one(monkeypatch):
    # in the classification at mu <= 13, each word the coset reduction
    # drops lies in the orbit of an earlier kept word's coset, and no two
    # kept words share one
    calls = []
    reduce = classify_mod._coset_representatives

    def recording(words, basis, mu):
        reps = reduce(words, basis, mu)
        calls.append((words, basis, mu, reps))
        return reps

    monkeypatch.setattr(classify_mod, "_coset_representatives", recording)
    for mu in range(6, 14):
        classify_mod._enumerate_admissible(mu)
    assert {mu for _, _, mu, _ in calls} == set(range(6, 14))
    assert any(len(reps) < len(words) for words, *_, reps in calls)
    for words, basis, mu, reps in calls:
        perms = column_transpositions(EvenSetCode(mu, basis))
        assert reps == searched_coset_representatives(words, span_words(basis), perms, mu)


def test_entries_are_built_only_for_kept_codes(monkeypatch, audited_classification_tables):
    # a plain table decides the dimension bounds from the basis before it
    # builds a profile and an enumerator, and keeps what the audit keeps
    built = Counter()
    entry = classify_mod._entry

    def counting(mu, canonical, basis):
        built[mu] += 1
        return entry(mu, canonical, basis)

    monkeypatch.setattr(classify_mod, "_entry", counting)
    for mu in range(6, 17):
        table = classify_quartic_codes(mu)
        assert built[mu] == len(table.entries) == EXPECTED_COUNTS[mu]
        assert table.entries == audited_classification_tables[mu].entries


# SHA-256 over the profile, dimension, canonical bytes, basis and weight
# enumerator of every entry and exclusion for mu = 6..16; a change to the
# search that picks another representative or alters an answer changes it
CLASSIFICATION_DIGEST = "defe1eb17d3c4b761a809313799b09769860590f620a32d47f824ac662be1354"


def test_classification_output_is_pinned(audited_classification_tables):
    h = hashlib.sha256()
    for mu, table in sorted(audited_classification_tables.items()):
        for kind, entries in (("entry", table.entries), ("excluded", table.excluded)):
            for e in entries:
                enum = ",".join(
                    f"{w}{par[0]}:{c}" for (w, par), c in sorted(e.enumerator.items())
                )
                h.update(
                    f"{mu}|{kind}|{e.profile}|{e.dim}|{e.canonical.hex()}|"
                    f"{list(e.code.basis)}|{enum}\n".encode()
                )
    assert h.hexdigest() == CLASSIFICATION_DIGEST


def test_audit_reports_dimension_excluded_codes():
    table = classify_quartic_codes(12, audit=True)
    profiles = {e.profile for e in table.excluded}
    # the three one-dimensional weight-admissible codes fail dim >= mu - 10
    assert {"[12,1,{6_1}]", "[12,1,{8_1}]", "[12,1,{10_1}]"} <= profiles
    for e in table.excluded:
        assert e.dim < max(1, 12 - 10) or e.code.strict_dim() < 12 - 11


def test_only_an_audited_table_reports_exclusions(
    classification_tables, audited_classification_tables
):
    # the table records whether it was audited, so its payload and listing
    # cannot claim an audit the run did not make
    plain, audited = classification_tables[12], audited_classification_tables[12]
    assert (plain.audit, plain.excluded) == (False, ())
    assert "excluded_by_dimension_bounds" not in plain.to_dict()
    assert "excluded by dimension bounds" not in render_table(plain)
    assert audited.audit
    assert len(audited.to_dict()["excluded_by_dimension_bounds"]) == 3
    assert "  excluded by dimension bounds (3):" in render_table(audited).splitlines()
    # an audit that excludes nothing still says it looked
    assert audited_classification_tables[6].to_dict()["excluded_by_dimension_bounds"] == []


def test_deterministic_ordering():
    a = classify_quartic_codes(12)
    b = classify_quartic_codes(12)
    assert [e.canonical for e in a.entries] == [e.canonical for e in b.entries]
    assert [e.dim for e in a.entries] == sorted(e.dim for e in a.entries)


def test_admissible_word_pool_sizes():
    # C(6,6) = 1 weak-6 word at mu=6; all four classes live at mu=16
    assert len(admissible_words_ext(6)) == 1
    assert len(admissible_words_ext(16)) == 8008 + 12870 + 8008 + 1


def test_render_table_mentions_every_profile(classification_tables):
    text = render_table(classification_tables[12])
    for _, profile in EXPECTED[12]:
        assert profile in text


def test_table_to_dict_round_trip(classification_tables):
    import json

    data = json.loads(json.dumps(classification_tables[14].to_dict()))
    assert data["count"] == 1
    assert data["entries"][0]["profile"] == "[14,4,{6_4,8,10}]"
