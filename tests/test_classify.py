"""The classifier of quartic even-set codes, mu = 6..16: its work, its
oracles and its output.  The golden table itself is criterion 1 of
``test_acceptance.py``."""

import hashlib
from collections import Counter
from fractions import Fraction
from math import factorial
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nodalcodes import classify as classify_mod
from nodalcodes.bounds import beauville_bound
from nodalcodes.classify import classify_quartic_codes, render_table
from nodalcodes.codes import (
    STRICT,
    WEAK,
    EvenSetCode,
    EvenSetWord,
    bit_rref,
    canonical_form,
    span_words,
)
from nodalcodes.errors import DomainError
from canonical_oracle import canonical_encoding
from classify_brute import class_encodings
from classify_oracle import admissible_words_ext, greedy_profile
from classify_oracle import enumerate_admissible as per_word_enumeration
from permutation_oracle import (
    apply_node_permutation,
    column_transpositions,
    orbit,
    permuted_code,
    popcount_orbit_representatives,
    searched_coset_representatives,
    searched_orbit_representatives,
)
from test_codes import _griesmer_ok


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
    # the first candidate of each word orbit, keyed by the library's packed
    # orbit key: with the span cut to {0}, each coset is one word, so the
    # coset pass of _parent_orbits keeps the first word of each key
    with mock.patch.object(classify_mod, "span_words", lambda basis: [0]):
        reps, _ = classify_mod._parent_orbits(candidates, basis, mu)
    return reps


@pytest.fixture(scope="module")
def recorded_run():
    """One recorded ``classify_quartic_codes(mu)`` for mu = 6..16: each
    ``_parent_orbits`` build as (words, basis, mu, reps), each split as its
    parent's (mu, basis), and per mu the canonical searches, the children
    whose class key is read and the entries built; then the per-word loop,
    under the same search counter.  The work pins read this one run, through
    ``_recorded``.  What the classifier raises at one mu is kept for the
    tests that read that mu."""
    run = SimpleNamespace(builds=[], splits=[], visited=Counter(), built=Counter(), tables={},
                          raised={})
    searched = Counter()
    build, search = classify_mod._parent_orbits, classify_mod._canonical_form
    key, entry = classify_mod._class_key, classify_mod._entry

    def building(words, basis, mu):
        reps, split = build(words, basis, mu)
        run.builds.append((words, basis, mu, reps))
        return reps, lambda w: run.splits.append((mu, basis)) or split(w)

    def searching(mu, basis, memo):
        searched[mu] += 1
        return search(mu, basis, memo)

    def visiting(basis, mu):
        run.visited[mu] += 1
        return key(basis, mu)

    def entering(mu, canonical, basis, aut):
        run.built[mu] += 1
        return entry(mu, canonical, basis, aut)

    with mock.patch.multiple(classify_mod, _parent_orbits=building, _canonical_form=searching,
                             _class_key=visiting, _entry=entering):
        for mu in range(6, 17):
            try:
                run.tables[mu] = classify_quartic_codes(mu)
            except Exception as exc:
                run.raised[mu] = exc
        run.searches = Counter(searched)
        for mu in range(6, 17):
            per_word_enumeration(mu)
    run.per_word_searches = searched.total() - run.searches.total()
    return run


def _recorded(run, last=16):
    # the recorded run, once the classifier ran at mu = 6..last without
    # raising; else what it raised
    for mu in range(6, last + 1):
        if mu in run.raised:
            raise run.raised[mu]
    return run


def test_orbit_key_matches_transposition_orbit_search(recorded_run):
    # every basis the search extends, on its full candidate list filtered
    # from scratch: the packed orbit key keeps exactly the candidates the
    # popcount-tuple key keeps, and at mu <= 13 exactly those an explicit
    # orbit search under the transpositions of identical columns keeps; the
    # coset pass over all candidates returns what it returns over those
    # word-orbit representatives, which is what the search handed it
    admissible = {mu: admissible_words_ext(mu) for mu in range(6, 17)}
    calls = _recorded(recorded_run).builds
    assert {mu for _, _, mu, _ in calls} == set(range(6, 17))
    shrunk = False
    for words, basis, mu, reps in calls:
        candidates = _scratch_candidates(basis, mu, admissible[mu])
        orbit_reps = _first_per_packed_key(candidates, basis, mu)
        shrunk |= len(orbit_reps) < len(candidates)
        assert orbit_reps == popcount_orbit_representatives(candidates, basis, mu)
        if mu <= 13:
            perms = column_transpositions(EvenSetCode(mu, basis))
            assert orbit_reps == searched_orbit_representatives(candidates, perms, mu)
        assert orbit_reps == words
        assert classify_mod._parent_orbits(candidates, basis, mu)[0] == reps
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
    reps, _ = classify_mod._parent_orbits(candidates, basis, mu)
    assert reps == classify_mod._parent_orbits(orbit_reps, basis, mu)[0]


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
    # each basis inherits its candidate orbits from its parent's split; the
    # list is the first word of each orbit of the full filter, and the
    # split's count is the number of words of that filter.  Every class is
    # checked as its split returns, the last classes of a level included,
    # whose level ends before their own coset pass; the split lists its
    # words unsorted, so there they are compared as a set.  Each parent's
    # list, the zero code's included, is checked again, order included, in
    # the order its coset pass reads it.  Checked inside the hook, so a
    # wrong list fails before the search grows from it.
    admissible = {mu: admissible_words_ext(mu) for mu in range(6, 17)}
    oracle = {}
    parents, children = [], []
    step = classify_mod._parent_orbits

    def expected(basis, mu):
        # the first words of the full filter's orbits, and the filter's size
        if (mu, basis) not in oracle:
            full = _scratch_candidates(basis, mu, admissible[mu])
            oracle[mu, basis] = popcount_orbit_representatives(full, basis, mu), len(full)
        return oracle[mu, basis]

    def checking(candidates, basis, mu):
        assert candidates == expected(basis, mu)[0], (mu, basis)
        parents.append((mu, basis))
        reps, split = step(candidates, basis, mu)

        def checked_split(w):
            words, count = split(w)
            child = tuple(bit_rref(basis + (w,)))
            first, size = expected(child, mu)
            assert (sorted(words), count) == (sorted(first), size), (mu, basis, w)
            children.append((mu, child))
            return words, count

        return reps, checked_split

    monkeypatch.setattr(classify_mod, "_parent_orbits", checking)
    found = []
    for mu in range(6, 17):
        found += [(mu, basis) for _, basis, _ in classify_mod._enumerate_admissible(mu)]
    zeros = {(mu, ()) for mu in range(6, 17)}
    assert sorted(children) == sorted(found)
    assert zeros <= set(parents) <= set(found) | zeros
    assert max(len(basis) for _, basis in children) == 6


@st.composite
def _split_inputs(draw, max_mu=12):
    # a basis (maybe empty, maybe with weak rows, parity linear on its span),
    # a candidate set P closed under the transpositions of its identical
    # columns, in the order of the admissible words, and r outside the span:
    # often the sum of two words of P, so the child keeps some of P
    mu = draw(st.integers(6, max_mu))
    top = (1 << mu + 1) - 1
    basis = tuple(draw(st.lists(st.integers(1, top), max_size=4)))
    span = span_words(basis)
    assume(1 << mu not in span)
    perms = column_transpositions(EvenSetCode(mu, basis))
    admissible = admissible_words_ext(mu)
    seeds = draw(st.lists(st.sampled_from(admissible), min_size=1, max_size=8))
    closed = set().union(*(orbit(w, perms, mu) for w in seeds))
    candidates = [c for c in admissible if c in closed]
    rng = draw(st.randoms(use_true_random=False))
    paired = rng.choice(candidates) ^ rng.choice(candidates)
    r = draw(st.one_of(st.just(paired), st.integers(1, top)))
    assume(r not in span)
    return candidates, basis, r, mu


def _check_split(candidates, basis, r, mu):
    # a child's orbits, split from its parent's first words, are the first
    # words of the orbits of the word-by-word filter, order included once
    # sorted as the child's own coset pass reads them, and the split counts
    # that filter's words
    words = popcount_orbit_representatives(candidates, basis, mu)
    closed = set(candidates)
    child = [c for c in candidates if c ^ r in closed]
    expected = popcount_orbit_representatives(child, basis + (r,), mu)
    _, split = classify_mod._parent_orbits(words, basis, mu)
    kept, count = split(r)
    assert sorted(kept, key=classify_mod._admissible_order(mu)) == expected
    assert count == len(child)


@settings(deadline=None, max_examples=150)
@given(_split_inputs())
def test_split_orbits_match_a_word_level_filter(inputs):
    _check_split(*inputs)


# the classifier's full range, mu up to 16
@pytest.mark.slow
@settings(deadline=None, max_examples=2000)
@given(_split_inputs(max_mu=16))
def test_split_orbits_match_a_word_level_filter_up_to_16(inputs):
    _check_split(*inputs)


def test_enumeration_matches_the_per_word_loop():
    # one child per orbit of cosets, its basis and its candidate orbits
    # built from its parent's: the same classes, reached by the same spans
    # in the same order, as trying every word-orbit representative with an
    # elimination each and filtering every candidate word
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
    12: [1485, 123585, 311850],
}


# mu = 11 enumerates 17 963 labeled codes in several seconds, and mu = 12,
# where parents first keep two or three cosets, 436 920 in minutes: run
# with --slow
@pytest.mark.parametrize(
    "mu", [*range(6, 11), *(pytest.param(mu, marks=pytest.mark.slow) for mu in (11, 12))]
)
def test_every_labeled_code_has_its_class_in_the_table(mu):
    # the brute force uses no symmetry: its classes are exactly the
    # classifier's, one table code (kept or excluded) per class
    counts, encodings = class_encodings(mu)
    assert counts == LABELED_COUNTS[mu]
    table = classify_quartic_codes(mu, audit=True)
    entries = table.entries + table.excluded
    assert sorted(canonical_encoding(e.code) for e in entries) == sorted(encodings)
    # a class of |Aut| = a holds mu!/a labeled codes
    labeled = [0] * len(counts)
    for e in entries:
        assert factorial(mu) % e.aut == 0
        labeled[e.dim - 1] += factorial(mu) // e.aut
    assert labeled == LABELED_COUNTS[mu]


def _double_count(mu, classes):
    # both sides of the double count at each level k, times 2^k, from the
    # (dimension, |Aut|, number of candidates) of each class and the zero
    # code: the labeled codes of dimension k + 1 over each labeled code of
    # dimension k, 2^k candidates to each, and the hyperplanes of each
    # labeled code of dimension k + 1
    top = max(dim for dim, _, _ in classes)
    sides = []
    for k in range(top + 1):
        left = sum(Fraction(factorial(mu), aut) * n for dim, aut, n in classes if dim == k)
        right = sum(Fraction(factorial(mu), aut) * ((2 << k) - 1 << k)
                    for dim, aut, _ in classes if dim == k + 1)
        sides.append((left, right))
    return sides


def test_every_level_meets_the_double_count(audited_classification_tables):
    # the identity on the table's classes, kept and excluded, with each
    # number of candidates filtered from all admissible words: no
    # candidate count of the library's is read.  It fails with any one
    # mu = 16 class left out, or with one |Aut| doubled.
    for mu, table in audited_classification_tables.items():
        admissible = admissible_words_ext(mu)
        classes = [(0, factorial(mu), len(admissible))]
        for e in table.entries + table.excluded:
            assert factorial(mu) % e.aut == 0
            classes.append((e.dim, e.aut, len(_scratch_candidates(e.code.basis, mu, admissible))))
        sides = _double_count(mu, classes)
        assert all(left == right for left, right in sides), (mu, sides)
        assert sides[-1] == (0, 0)
    assert mu == 16 and len(classes) == 31  # the zero code and 30 classes
    assert [aut for dim, aut, _ in classes if dim == 6] == [11520]
    for i in range(1, len(classes)):
        dropped = classes[:i] + classes[i + 1:]
        assert any(left != right for left, right in _double_count(16, dropped)), i
        dim, aut, n = classes[i]
        doubled = classes[:i] + [(dim, 2 * aut, n)] + classes[i + 1:]
        assert any(left != right for left, right in _double_count(16, doubled)), i


@pytest.mark.parametrize("factor", [Fraction(1, 2), 2])
def test_a_failed_double_count_raises(monkeypatch, factor):
    # every |Aut| halved, the classes of dimension 1 at mu = 8 count more
    # pairs than the zero code has (56 against 29), and the level must not
    # stop on them; doubled, they count fewer (14), and the level runs out
    # of cosets short of the count
    search = classify_mod._canonical_form

    def scaled(mu, basis, memo):
        enc, aut = search(mu, basis, memo)
        return enc, int(aut * factor)

    monkeypatch.setattr(classify_mod, "_canonical_form", scaled)
    with pytest.raises(ArithmeticError, match="dimension 0 -> 1"):
        classify_quartic_codes(8)


def test_canonical_search_count_is_pinned(recorded_run):
    # the coset reduction's saving, the double count's stop and the class
    # key's skip as counts: 204 children visited, and one canonical search
    # per class, 87.  A weaker coset key (one that misses images under
    # identical columns, or is not constant on a coset), or a level that
    # runs on after its count is met (362 children), keeps the answers but
    # visits more children, which the class key then skips without a
    # search; a class key that a node permutation changes searches more.
    # The per-word loop runs every level to its end and searches every
    # child.
    run = _recorded(recorded_run)
    calls, visited = run.searches, run.visited
    assert [calls[mu] for mu in range(6, 17)] == [1, 1, 2, 2, 4, 4, 7, 8, 12, 16, 30]
    assert sum(calls.values()) == 87
    assert [visited[mu] for mu in range(6, 17)] == [1, 1, 2, 2, 4, 4, 9, 10, 21, 47, 103]
    assert sum(visited.values()) == 204
    assert run.per_word_searches == 814


def test_class_key_parts_the_classes_of_each_level(audited_classification_tables):
    # for mu = 6..16 no two classes of one dimension share a key, so no
    # skip hides a class; the weight enumerator alone meets two classes at
    # mu = 16, dimension 4, which the sizes of the column classes part
    collisions = set()
    for mu, table in audited_classification_tables.items():
        levels = {}
        for e in table.entries + table.excluded:
            levels.setdefault(e.dim, []).append(e)
        for dim, entries in levels.items():
            keys = {classify_mod._class_key(e.code.basis, mu) for e in entries}
            assert len(keys) == len(entries), (mu, dim)
            enumerators = {frozenset(e.enumerator.items()) for e in entries}
            if len(enumerators) < len(entries):
                collisions.add((mu, dim))
    assert collisions == {(16, 4)}


@settings(deadline=None, max_examples=30)
@given(st.randoms(use_true_random=False))
def test_class_key_is_a_node_permutation_invariant(audited_classification_tables, rng):
    # every table class, entries and exclusions, under a random relabeling
    # of its nodes: the relabeled code's reduced basis gives the same key
    tables = audited_classification_tables.values()
    for e in (e for table in tables for e in table.entries + table.excluded):
        mu = e.code.mu
        perm = list(range(mu))
        rng.shuffle(perm)
        image = permuted_code(e.code, tuple(perm))
        assert classify_mod._class_key(image.basis, mu) == classify_mod._class_key(e.code.basis, mu)


def test_orbit_tables_are_built_once_per_parent(recorded_run, audited_classification_tables):
    # a parent's classes and keys serve its coset pass and all its children:
    # they are built at most once for each of the 87 codes the search finds
    # and for the zero code of each mu, whose children are the one-word
    # codes, and only until the level's double count is met (98 builds
    # without the stop); a second build over the same basis would repeat them
    calls = [(mu, basis) for _, basis, mu, _ in _recorded(recorded_run).builds]
    found = {(mu, ()) for mu in range(6, 17)} | {
        (mu, e.code.basis)
        for mu, table in audited_classification_tables.items()
        for e in table.entries + table.excluded
    }
    assert len(calls) == 56
    assert len(set(calls)) == len(calls)
    assert set(calls) <= found
    assert {(mu, ()) for mu in range(6, 17)} <= set(calls)


def test_orbit_splitter_is_built_once_per_parent(recorded_run):
    # the split comes with its parent's one build and serves all its
    # children: for mu = 6..16 the 87 extended codes are split from 45
    # distinct parents, none of them built twice
    run = _recorded(recorded_run)
    builds = [(mu, basis) for _, basis, mu, _ in run.builds]
    children = run.splits
    assert len(builds) == len(set(builds))
    assert len(children) == 87
    assert len(set(children)) == 45
    assert set(children) <= set(builds)


def test_coset_pass_reads_one_word_per_orbit(recorded_run):
    # the coset pass reads the first word of each orbit of candidates: 816
    # over the codes the search extends before each level's double count
    # is met (3 254 without the stop), and the four word classes (or those
    # that fit) at each zero code.  The counts are those of the orbits,
    # whatever builds them; a full candidate list reads 190 932.
    read = Counter()
    for words, basis, _, _ in _recorded(recorded_run).builds:
        read[bool(basis)] += len(words)
    assert read == {True: 816, False: 28}


@st.composite
def _coset_inputs(draw, max_mu=10):
    # orbit inputs with translates by span words inserted anywhere, so one
    # coset recurs under several of its words
    candidates, basis, mu = draw(_orbit_inputs(max_mu=max_mu))
    span = span_words(basis)
    assume(1 << mu not in span)
    rng = draw(st.randoms(use_true_random=False))
    for _ in range(draw(st.integers(0, 8))):
        translate = rng.choice(candidates) ^ rng.choice(span)
        candidates.insert(rng.randrange(len(candidates) + 1), translate)
    return candidates, basis, mu


def _check_coset_key(candidates, basis, mu):
    # the key is constant on each coset and on its images under identical
    # columns (else a translate or an image would be kept), and it parts
    # cosets no transposition of identical columns maps onto each other
    # (else one would be lost)
    perms = column_transpositions(EvenSetCode(mu, basis))
    reps, _ = classify_mod._parent_orbits(candidates, basis, mu)
    assert reps == searched_coset_representatives(candidates, span_words(basis), perms, mu)


@settings(deadline=None, max_examples=200)
@given(_coset_inputs())
def test_coset_key_matches_a_coset_orbit_search(inputs):
    _check_coset_key(*inputs)


# the classifier's full range, mu up to 16
@pytest.mark.slow
@settings(deadline=None, max_examples=2000)
@given(_coset_inputs(max_mu=16))
def test_coset_key_matches_a_coset_orbit_search_up_to_16(inputs):
    _check_coset_key(*inputs)


def test_every_dropped_coset_is_the_image_of_a_kept_one(recorded_run):
    # in the classification at mu <= 13, each word the coset reduction
    # drops lies in the orbit of an earlier kept word's coset, and no two
    # kept words share one
    calls = [call for call in _recorded(recorded_run, last=13).builds if call[2] <= 13]
    assert {mu for _, _, mu, _ in calls} == set(range(6, 14))
    assert any(len(reps) < len(words) for words, *_, reps in calls)
    for words, basis, mu, reps in calls:
        perms = column_transpositions(EvenSetCode(mu, basis))
        assert reps == searched_coset_representatives(words, span_words(basis), perms, mu)


def test_entries_are_built_only_for_kept_codes(recorded_run, audited_classification_tables):
    # a plain table decides the dimension bounds from the basis before it
    # builds a profile and an enumerator, and keeps what the audit keeps
    run = _recorded(recorded_run)
    for mu, table in run.tables.items():
        assert run.built[mu] == len(table.entries)
        assert table.entries == audited_classification_tables[mu].entries


@st.composite
def _random_codes(draw, max_mu=14, max_dim=7):
    # random supports, the parity a random linear functional of the support
    mu = draw(st.integers(1, max_mu))
    support = st.integers(0, (1 << mu) - 1)
    functional = draw(support)
    supports = draw(st.lists(support, max_size=max_dim))
    return EvenSetCode(mu, tuple(s | ((s & functional).bit_count() & 1) << mu for s in supports))


@settings(deadline=None, max_examples=300)
@given(_random_codes())
def test_rank_profile_matches_the_greedy_basis(code):
    assert classify_mod._profile(code) == greedy_profile(code)


@pytest.mark.slow
@settings(deadline=None, max_examples=2000)
@given(_random_codes(max_mu=16, max_dim=10))
def test_rank_profile_matches_the_greedy_basis_up_to_dimension_10(code):
    assert classify_mod._profile(code) == greedy_profile(code)


def test_rank_profile_matches_the_greedy_basis_on_the_table(audited_classification_tables):
    # 23 entries and 64 exclusions, the mixed multiplicities at mu = 16 included
    tables = audited_classification_tables.values()
    codes = [e for table in tables for e in table.entries + table.excluded]
    assert len(codes) == 87
    for e in codes:
        assert e.profile == greedy_profile(e.code)


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


def test_audit_reports_dimension_excluded_codes(audited_classification_tables):
    profiles = {e.profile for e in audited_classification_tables[12].excluded}
    # the three one-dimensional weight-admissible codes fail dim >= mu - 10
    assert {"[12,1,{6_1}]", "[12,1,{8_1}]", "[12,1,{10_1}]"} <= profiles
    for mu, table in audited_classification_tables.items():
        # a code is kept exactly when it meets Beauville's bound, and that
        # alone implies his bound on the strictly even subcode
        least = beauville_bound(4, mu)
        assert least == mu - 10
        assert all(e.dim >= least and e.code.strict_dim() >= mu - 11 for e in table.entries), mu
        assert all(e.dim < least for e in table.excluded), mu


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
    table = classification_tables[12]
    text = render_table(table)
    for entry in table.entries:
        assert entry.profile in text


def test_table_to_dict_round_trip(classification_tables):
    import json

    data = classification_tables[14].to_dict()
    assert json.loads(json.dumps(data)) == data
