"""The class DPs of the synchronisation checks and the finite near-obstruction
sets of an explicit list, each against the word-list path it replaces:
``find_sync_triple``, ``verify_sync_triple``, ``ensure_no_long_overlaps`` and
``sync_decomposition`` over the whole language of a finite layer against
the same calls with a predicate good set (or a stepped copy of the layer),
which list and key every word, and ``cgc``'s D-+ of an explicit list
against the connector search per word."""

from __future__ import annotations

import itertools

from hypothesis import given, reject, settings, strategies as st

import shiftlab as sl
from shiftlab import tower
from shiftlab.core import LanguageOracle, WordSet
from shiftlab.decomp import _near_obstructions
from shiftlab.errors import EmptyLanguageError, ShiftLabError

from reference import near_obstructions_by_search


@st.composite
def finite_layers(draw, limit=None):
    """A generated SFT (2-3 symbols, up to three forbidden words of length
    1-3) or S-gap shift, with an enumeration limit small enough for the
    word-list path to key every pair (drawn from ``limit`` if given)."""
    if draw(st.booleans()):
        k = draw(st.integers(2, 3))
        forbidden = draw(st.lists(st.lists(st.integers(0, k - 1), min_size=1, max_size=3)
                                  .map(tuple), max_size=3, unique=True))
        try:
            return sl.sft_from_forbidden(sl.SftSpec(sl.Alphabet.of_size(k), tuple(forbidden)),
                                         draw(limit) if limit is not None else 6 if k == 2 else 4)
        except EmptyLanguageError:
            reject()
    values = tuple(sorted(draw(st.sets(st.integers(0, 4), min_size=1, max_size=3))))
    tail = draw(st.sampled_from([(None, None), (3, 2), (5, 1)]))
    return sl.s_gap_shift(sl.SGapSpec(values, *tail), draw(limit) if limit is not None else 6)


def _words(oracle, max_len):
    """Strings over the alphabet, words or not, of length 0..max_len."""
    return st.lists(st.integers(0, oracle.alphabet.size - 1), max_size=max_len).map(tuple)


def _stepped(oracle: LanguageOracle) -> LanguageOracle:
    """The same layer read one state at a time, with no ``transitions``."""
    rows = oracle.transitions
    return LanguageOracle(oracle.alphabet, oracle.start, lambda q, a: rows[q].get(a),
                          oracle.enumeration_limit, name=oracle.name)


def _outcome(call):
    """What a call returns, or the class, message and witness (if any) of
    what it raises."""
    try:
        return call()
    except ShiftLabError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


def _every_word(oracle):
    return WordSet.from_predicate(oracle, lambda w: True)


@settings(max_examples=25, deadline=None)
@given(finite_layers(), st.data())
def test_sync_triple_classes_match_the_word_lists(oracle, data):
    seed_v, seed_w = data.draw(_words(oracle, 3)), data.draw(_words(oracle, 3))
    tau = data.draw(st.integers(0, 2))
    depth = data.draw(st.integers(0, oracle.enumeration_limit))
    lang, every = WordSet.language(oracle), _every_word(oracle)
    stepped = _stepped(oracle)
    got = _outcome(lambda: tower.find_sync_triple(oracle, lang, tau, seed_v, seed_w, depth))
    assert got == _outcome(lambda: tower.find_sync_triple(oracle, every, tau, seed_v, seed_w,
                                                          depth))
    # past the limit too, against a stepped copy of the layer
    deeper = depth + data.draw(st.integers(0, 2))
    assert _outcome(lambda: tower.find_sync_triple(oracle, lang, tau, seed_v, seed_w, deeper)) \
        == _outcome(lambda: tower.find_sync_triple(stepped, WordSet.language(stepped), tau,
                                                   seed_v, seed_w, deeper))
    triple = tower.SyncTriple(data.draw(_words(oracle, 3)), data.draw(_words(oracle, 2)),
                              data.draw(_words(oracle, 3)), depth)
    assert tower.verify_sync_triple(triple, oracle, lang, depth) \
        == tower.verify_sync_triple(triple, oracle, every, depth)
    assert _outcome(lambda: tower.verify_sync_triple(triple, oracle, lang, deeper)) \
        == _outcome(lambda: tower.verify_sync_triple(triple, stepped, WordSet.language(stepped),
                                                     deeper))
    if isinstance(got, tower.SyncTriple):
        assert _outcome(lambda: tower.ensure_no_long_overlaps(got, oracle, lang, depth, tau=tau)) \
            == _outcome(lambda: tower.ensure_no_long_overlaps(got, oracle, every, depth, tau=tau))


def _assert_classes_match_the_listed_words(oracle, p, c, q, longest):
    """The first x (by length, then lexicographically) per key state(x.p.c)
    and the first y per key domain(q.y), against every listed word."""
    xs = [x for n in range(longest + 1) for x in oracle.words(n)]
    lefts, rights = {}, {}
    for x in xs:
        if oracle.contains(x + p):
            lefts.setdefault(oracle.state(x + p + c), x)
        if oracle.contains(q + x):
            rights.setdefault(oracle.domain(q + x), x)
    assert list(tower._left_classes(oracle, p, c, longest).items()) == list(lefts.items())
    assert list(tower._right_classes(oracle, q, longest).items()) == list(rights.items())


@settings(max_examples=25, deadline=None)
@given(finite_layers(), st.data())
def test_class_dps_match_the_listed_words(oracle, data):
    p, c, q = data.draw(_words(oracle, 2)), data.draw(_words(oracle, 2)), data.draw(_words(oracle, 2))
    longest = data.draw(st.integers(-1, oracle.enumeration_limit - 2))
    _assert_classes_match_the_listed_words(oracle, p, c, q, longest)


def test_class_dps_read_on_past_a_level_of_the_same_size():
    # forbidding 010 over three symbols, the words of length 1 and 2 end on
    # three states each, but not the same three: the state DP must go on
    oracle = sl.sft_from_forbidden(sl.SftSpec.from_strings("012", ["010"]), 5)
    _assert_classes_match_the_listed_words(oracle, (), (), (), 4)


def test_sync_checks_raise_as_the_lists_do():
    # past the limit the lists raise at their first length too long, the
    # verification's rights (length 3) before its lefts (length 4), the
    # refinement's lefts before its rights
    oracle = sl.sft_from_forbidden(sl.SftSpec.from_strings("01", ["11"]), 2)
    stepped = _stepped(oracle)
    triple = tower.SyncTriple((0, 0, 0, 0), (), (0, 0, 0), 6)
    for call in (lambda o: tower.verify_sync_triple(triple, o, WordSet.language(o), 6),
                 lambda o: tower.find_sync_triple(o, WordSet.language(o), 0, (0, 0, 0),
                                                  (0, 0, 0, 0), 6)):
        assert _outcome(lambda: call(oracle)) == _outcome(lambda: call(stepped))
    assert "length 3 exceeds" in _outcome(lambda: tower.verify_sync_triple(
        triple, oracle, WordSet.language(oracle), 6))[1]


@settings(max_examples=25, deadline=None)
@given(finite_layers(), st.data())
def test_sync_decomposition_classes_match_the_word_lists(oracle, data):
    s = data.draw(_words(oracle, 3))
    d = data.draw(st.integers(0, oracle.enumeration_limit + 1))
    stepped = _stepped(oracle)
    got = _outcome(lambda: sl.sync_decomposition(oracle, s, depth=d))
    ref = _outcome(lambda: sl.sync_decomposition(stepped, s, depth=d))
    if isinstance(ref, tuple):
        assert got == ref
    else:
        assert (got.tau, got.L_param) == (ref.tau, ref.L_param)
        for n in range(1, 4):
            assert got.good.at(n) == ref.good.at(n)


@settings(max_examples=30, deadline=None)
@given(finite_layers(limit=st.integers(2, 4)), st.data())
def test_explicit_near_obstructions_match_the_search(oracle, data):
    # members longer than the limit plus one have splits whose x the
    # search never reaches
    obstructions = WordSet.from_words(oracle, data.draw(st.lists(_words(oracle, 7), max_size=6)),
                                      depth=oracle.enumeration_limit)
    reach = data.draw(st.integers(0, 7))
    side = data.draw(st.sampled_from(["left", "right"]))
    got = _near_obstructions(obstructions, oracle, reach, side)
    ref = near_obstructions_by_search(obstructions, oracle, reach, side)
    assert got.name == ref.name
    for n in range(oracle.enumeration_limit + 1):
        # member by member in listing order, then the listing itself
        for w in oracle.words(n):
            assert _outcome(lambda: got.contains(w)) == _outcome(lambda: ref.contains(w))
        assert _outcome(lambda: got.at(n)) == _outcome(lambda: ref.at(n))
    for w in itertools.islice(itertools.chain.from_iterable(obstructions._explicit.values()), 6):
        assert _outcome(lambda: got.contains(w)) == _outcome(lambda: ref.contains(w))


def test_sync_triple_search_lists_no_word(monkeypatch):
    # the refinement and the verification read their classes from the
    # class DPs, which stop growing once their levels repeat: no depth
    # lists a word, and depth 16 makes hardly more entries than depth 8,
    # where a list would hold about 2^16 / 2^8 times as many words
    def listed(self, n):
        raise AssertionError(f"words({n}) was listed")

    monkeypatch.setattr(LanguageOracle, "words", listed)
    entries = {}
    for depth in (8, 12, 16):
        oracle = sl.sft_from_forbidden(sl.SftSpec.from_strings("01", ["111", "0101"]), 40)
        t = tower.find_sync_triple(oracle, WordSet.language(oracle), 1, (0,), (0,), depth)
        assert (t.r, t.c, t.s) == ((0, 1, 0), (), (0,))
        dp = oracle._first_words
        entries[depth] = sum(len(level) for side in (dp.states, dp.domains)
                             for level in side.levels)
    assert entries[16] <= 2.2 * entries[8]
