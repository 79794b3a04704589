"""Alphabets, words, language oracles, word sets, and locally constant potentials.

Words are stored as tuples of alphabet indices.  All enumeration is
lexicographic in the alphabet order, and every floating-point reduction in
the package accumulates in that canonical order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import DepthExceededError, NotInLanguageError

Word = tuple[int, ...]

EMPTY_WORD: Word = ()

#: chunk size for canonical-order partial sums; fixed, because another
#: chunking would round differently and change report bytes
_SUM_CHUNK = 4096


def default_depth_guard(alphabet_size: int) -> int:
    """Enumeration depth guard: 24 for two letters, scaled so that the
    worst-case word count k**n stays comparable for larger alphabets."""
    if alphabet_size <= 2:
        return 24
    return max(8, int(24 * math.log(2) / math.log(alphabet_size)))


@dataclass(frozen=True)
class Alphabet:
    """An ordered finite list of distinct symbol identifiers.

    The ordering is total and fixed; it defines the lexicographic order on
    words used throughout.
    """

    symbols: tuple[str, ...]
    separator: str = ""

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("alphabet must contain at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")
        if self.separator == "" and any(len(s) != 1 for s in self.symbols):
            # multi-character identifiers need a separator to round-trip
            object.__setattr__(self, "separator", ",")

    @classmethod
    def of_size(cls, k: int) -> "Alphabet":
        if k <= 10:
            return cls(tuple(str(i) for i in range(k)))
        return cls(tuple(str(i) for i in range(k)), separator=",")

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise KeyError(f"unknown symbol {symbol!r}") from None

    def word(self, text: str) -> Word:
        """Parse a word from its serialized form."""
        if text == "":
            return EMPTY_WORD
        if self.separator:
            return tuple(self.index(part) for part in text.split(self.separator))
        return tuple(self.index(ch) for ch in text)

    def text(self, w: Word) -> str:
        return self.separator.join(self.symbols[i] for i in w)

    def valid(self, w: Word) -> bool:
        return not w or (min(w) >= 0 and max(w) < len(self.symbols))


class CodeAutomaton:
    """Subset automaton of the parse automaton of a code (Lind & Marcus,
    ch. 3).

    A parse state (i, j) means that the next symbol to read is
    ``code[i][j]``; finishing a codeword moves to ``boundary``, the set of
    every (i, 0).  A word is a factor of a concatenation of codewords iff
    its run from ``positions`` (every parse state) never becomes empty, and
    it is a concatenation iff its run from ``boundary`` ends on a set
    holding ``boundary``.  Callers tabulate a run once with
    ``LanguageOracle.finite_state``, so ``step`` is not memoised.
    """

    def __init__(self, code: Sequence[Word]):
        self.code = tuple(code)
        self.boundary = frozenset((i, 0) for i in range(len(self.code)))
        self.positions = frozenset((i, j) for i, w in enumerate(self.code) for j in range(len(w)))

    def step(self, states: frozenset, a: int) -> frozenset:
        out = set()
        for i, j in states:
            w = self.code[i]
            if w[j] == a:
                if j + 1 < len(w):
                    out.add((i, j + 1))
                else:
                    out |= self.boundary
        return frozenset(out)


class LanguageOracle:
    """Membership + enumeration for the language of a shift space.

    The language is factorial (subwords of members are members) and the
    empty word is always a member.  ``enumeration_limit`` is the depth to
    which the oracle certifies enumeration; deeper requests raise
    DepthExceededError.

    Every oracle is a layer read one symbol at a time: a ``start`` state
    and ``step(state, a)``, the state after symbol a or None once the word
    leaves the language; ``_rows[q]`` is {a: step(q, a)} over the symbols
    that stay in it, ``state(w)`` is the state after a whole word, and
    ``contains(w)`` asks whether it exists.  ``words(n)`` extends each
    stored (word, state) pair by one symbol and keeps the states of its
    words in ``_states[n]``, from which the next length is read and
    ``thermo.periodic_points`` carries each word's monoid id.  A
    finite layer (SFT, S-gap, coded and nonnegative cocyclic shifts of
    dimension <= 3, and the ``WordSet`` products; see
    :meth:`finite_state`) tabulates ``transitions`` once over numbered
    states, ``labels`` naming them: ``count(n)`` is then a count DP with no
    depth limit, and ``connectors`` walks states.  The other layers step a
    real state and make each state's row on its first lookup: a beta shift
    steps its tie-automaton state with the length read, a signed or d >= 4
    cocyclic shift its integer matrix product; their ``count(n)`` and
    ``thermo``'s partition sums are the same DPs over the rows, behind the
    enumeration limit.
    Optional fields:

    * ``locality``: window size m within which membership is decidable (SFT
      memory + 1); then p^infinity is admissible iff a repetition of p of
      length >= |p| + m is, so periodic points are exact.  ``None`` for
      non-local rules, whose periodic points are depth-certified.  On a
      finite layer ``thermo.periodic_points`` reads those repetitions off
      the transition-monoid element of p (q -> q.p), once per element,
    * ``exact_periods``: on a finite layer, p^infinity is admissible iff
      the orbit of the start under q -> q.p never dies, read until it
      repeats, so periodic points are exact whatever the locality (S-gap
      shifts),
    * ``certified_depth``: the longest word whose membership is certified,
      longer ones raising DepthExceededError (a beta shift whose z has no
      period); ``None`` when there is no such bound.
    """

    def __init__(
        self,
        alphabet: Alphabet,
        start,
        step: Callable | None,
        enumeration_limit: int,
        *,
        name: str = "",
        locality: int | None = None,
        exact_periods: bool = False,
        certified_depth: int | None = None,
    ):
        self.alphabet = alphabet
        self.start = start
        self.enumeration_limit = int(enumeration_limit)
        self.name = name or "shift"
        self.locality = locality
        self.exact_periods = exact_periods
        self.certified_depth = certified_depth
        #: rows {symbol: next state} of a finite layer, by state; else None
        self.transitions: list[dict[int, int]] | None = None
        #: the state ``finite_state`` was given behind each state number; else None
        self.labels: list | None = None
        #: {state: {symbol: next state}}: ``transitions`` on a finite layer,
        #: else each state's row of ``step``, made on its first lookup
        self._rows = _SteppedRows(step, alphabet.size)
        self._cache: dict[int, tuple[Word, ...]] = {}
        #: n -> the states of words(n), in the same order
        self._states: dict[int, list] = {0: [start]}
        #: count(n) for n < len, and the count DP that extends them
        self._counts: list[int] = []
        self._count_walk = None
        #: potential -> ({word: phi_hat}, {(state, last symbols): phi_tail});
        #: see phi_hat and phi_tail
        self._phi_memo: dict[Potential, tuple[dict, dict]] = {}
        #: potential -> thermo's scaled window sums for periodic-orbit classes
        self._sums: dict[Potential, object] = {}
        #: potential -> the transfer DP of the language over this layer,
        #: which thermo makes and extends
        self._transfer: dict[Potential, object] = {}
        #: a finite layer's transition monoid, made on first use by
        #: thermo.periodic_points or thermo.periodic_orbit_measure
        self._monoid = None
        #: the class DPs of tower's synchronisation checks (tower._FirstWords),
        #: made on first use on a finite layer
        self._first_words = None
        #: the memos of a finite layer's walks: domain by word and its
        #: preimage step by (symbol, domain), followers by (state, length),
        #: connectors by (state, domain, length) and separates by (state,
        #: state, bound)
        self._domains: dict[Word, frozenset[int]] = {}
        self._preimages: dict[tuple[int, frozenset[int]], frozenset[int]] = {}
        self._followers: dict[tuple[int, int], list[tuple[Word, int]]] = {}
        self._links: dict[tuple[int, frozenset[int], int], tuple[Word, ...]] = {}
        self._separations: dict[tuple, bool] = {}
        #: by length j, the states words of length j end on and those of 1..j
        self._reach: list[tuple[frozenset[int], frozenset[int]]] = []

    @classmethod
    def finite_state(cls, alphabet: Alphabet, start, step: Callable, enumeration_limit: int,
                     **options) -> "LanguageOracle":
        """An oracle over the states reachable from ``start`` under ``step``,
        numbered in breadth-first order (0 is the start, symbols ascending);
        ``labels[q]`` is the state numbered q."""
        oracle = cls(alphabet, 0, None, enumeration_limit, **options)
        labels, ids, rows = [start], {start: 0}, []
        for q in labels:  # grows as new states are found
            targets = [(a, t) for a in range(alphabet.size) if (t := step(q, a)) is not None]
            for _, t in targets:
                if t not in ids:
                    ids[t] = len(labels)
                    labels.append(t)
            rows.append({a: ids[t] for a, t in targets})
        oracle.transitions = oracle._rows = rows
        oracle.labels = labels
        return oracle

    def step(self, state, a: int):
        return self._rows[state].get(a)

    def state(self, w: Word):
        """The state after reading w from ``start``, or None when w is not
        in the language."""
        if self.transitions is None and not self.alphabet.valid(w):
            return None
        rows, q = self._rows, self.start
        for a in w:
            q = rows[q].get(a)
            if q is None:
                return None
        return q

    def contains(self, w: Word) -> bool:
        return self.state(w) is not None

    def check_depth(self, n: int) -> None:
        """DepthExceededError when length n is past the enumeration limit."""
        if n > self.enumeration_limit:
            raise DepthExceededError(
                f"length {n} exceeds enumeration limit {self.enumeration_limit} of {self.name}"
            )

    def words(self, n: int) -> tuple[Word, ...]:
        """All admissible words of length n, lexicographically sorted; past
        the enumeration limit, DepthExceededError."""
        self.check_depth(n)
        if n < 0:
            return ()
        got = self._cache.get(n)
        if got is not None:
            return got
        acc: list[Word] = []
        states: list = []
        if n == 0:
            acc.append(EMPTY_WORD)
            states.append(self.start)
        else:
            rows = self._rows
            for p, q in zip(self.words(n - 1), self._states[n - 1]):
                for a, t in rows[q].items():
                    acc.append(p + (a,))
                    states.append(t)
        out = self._cache[n] = tuple(acc)
        self._states[n] = states
        return out

    def connectors(self, left: Word, right: Word, lengths: Iterable[int],
                   accept: Callable[[Word], bool] | None = None) -> Iterator[Word]:
        """The words c with |c| in ``lengths`` (by length, then
        lexicographically) for which ``accept(left + c + right)`` holds;
        ``accept`` defaults to ``contains``.  The one connector and extension
        search: gluing, [I*], qft constraints, synchronisation and ``cgc``'s
        near obstructions ask it.

        On a finite layer, when ``accept`` is the ``contains`` of a
        ``WordSet`` over this oracle that is not an explicit list, only the
        c with left.c.right a word can be accepted, so the search walks the
        followers of state(left) into domain(right) and asks ``accept`` of
        those alone, in the same order.  Explicit lists may hold words
        outside the language (see ``WordSet``), so they and other
        predicates are asked of every word of each length."""
        left_key, right_key, search = self._search(accept)
        return search(left_key(left), right_key(right), lengths)

    def connector_classes(self, lefts: Iterable[Word], rights: Iterable[Word],
                          accept: Callable[[Word], bool] | None = None) -> tuple[dict, dict, Callable]:
        """``connectors`` over every pair of a left and a right list, by
        classes: each list as {key: index of its first word with that key},
        in order, and ``search(left key, right key, lengths)``, which yields
        what ``connectors(left, right, lengths, accept)`` does for every
        pair in those classes.  So the first pair in list order that meets a
        condition on its connectors is a pair of first words.

        On a finite layer asked its own membership (``accept`` None or the
        ``contains`` of its ``WordSet.language``), v.c.w is a word iff
        state(v).c lies in ``domain(w)`` (Lind & Marcus, sec. 3.3): a left's
        key is its state, a right's its domain, and ``search`` walks the
        followers of the state (each a word, the language being
        factorial).  Otherwise each word is its own key, and ``search`` is
        that of ``connectors``.

        Its callers are [I*] (``decomp.check_complete_list_Istar``) and the
        word-list path of the synchronisation checks (``tower``'s triple
        search and verification, on stepped layers and good sets other than
        the language, and ``decomp.sync_decomposition`` on stepped layers).
        Over the language of a finite layer those checks read their classes
        from the class DPs of ``tower._FirstWords`` instead, listing no
        word."""
        left_key, right_key, search = self._search(accept)
        return _first_indices(map(left_key, lefts)), _first_indices(map(right_key, rights)), search

    def _search(self, accept: Callable[[Word], bool] | None) -> tuple[Callable, Callable, Callable]:
        """The left key, right key and search of ``connector_classes``."""
        owner = getattr(accept, "__self__", None)
        walked = self.transitions is not None and (accept is None or (
            getattr(accept, "__func__", None) is WordSet.contains and owner.oracle is self
            and owner._explicit is None))
        if walked and (accept is None or owner.is_full_language):
            return self.state, self.domain, self._walk
        if walked:  # a predicate set: its members are words
            def search(left: Word, right: Word, lengths: Iterable[int]) -> Iterator[Word]:
                for c in self._walk(self.state(left), self.domain(right), lengths):
                    if accept(left + c + right):
                        yield c

            return _same, _same, search
        accept = accept or self.contains

        def search(left: Word, right: Word, lengths: Iterable[int]) -> Iterator[Word]:
            for ell in lengths:
                for c in self.words(ell):
                    if accept(left + c + right):
                        yield c

        return _same, _same, search

    def _walk(self, q: int | None, dom: frozenset[int], lengths: Iterable[int]) -> Iterator[Word]:
        """The words c with |c| in ``lengths`` and q.c in ``dom``, by length,
        then lexicographically; past the enumeration limit, as ``words``,
        DepthExceededError, also when q is None (a left outside the
        language)."""
        for ell in lengths:
            self.check_depth(ell)
            if q is None or ell < 0:
                continue
            got = self._links.get((q, dom, ell))
            if got is None:
                got = self._links[q, dom, ell] = tuple(
                    c for c, t in self._followers_of(q, ell) if t in dom)
            yield from got

    def _followers_of(self, q: int, ell: int) -> list[tuple[Word, int]]:
        """The words of length ell readable from state q, lexicographically,
        each with the state it ends on."""
        got = self._followers.get((q, ell))
        if got is None:
            rows = self.transitions
            got = [(EMPTY_WORD, q)] if ell == 0 else [
                (c + (a,), t) for c, p in self._followers_of(q, ell - 1) for a, t in rows[p].items()]
            self._followers[q, ell] = got
        return got

    def domain(self, w: Word) -> frozenset[int]:
        """The finite-layer states from which w can be read, by suffixes:
        the domain of a.w is the states whose a-successor lies in that of w,
        a preimage step that words sharing a and that domain share."""
        got = self._domains.get(w)
        if got is None:
            if not w:
                got = frozenset(range(len(self.transitions)))
            else:
                got = self.preimage(w[0], self.domain(w[1:]))
            self._domains[w] = got
        return got

    def preimage(self, a: int, dom: frozenset[int]) -> frozenset[int]:
        """The finite-layer states whose a-successor lies in dom, memoised
        per (symbol, domain)."""
        got = self._preimages.get((a, dom))
        if got is None:
            got = self._preimages[a, dom] = frozenset(
                q for q, row in enumerate(self.transitions) if row.get(a) in dom)
        return got

    def separates(self, p: int | None, q: int | None, bound: int) -> bool:
        """Whether some word of length 1..bound is read from finite-layer
        state p but not from q (None: from no state)."""
        if bound < 1 or p is None:
            return False
        key = (p, q, bound)
        got = self._separations.get(key)
        if got is None:
            rows = self.transitions
            other = rows[q] if q is not None else {}
            got = self._separations[key] = any(
                a not in other or self.separates(t, other[a], bound - 1)
                for a, t in rows[p].items())
        return got

    def reach(self, bound: int) -> frozenset[int]:
        """The finite-layer states that words of length 1..bound end on."""
        rows, steps = self.transitions, self._reach
        if not steps:
            steps.append((frozenset([self.start]), frozenset()))
        while len(steps) <= bound:
            level, union = steps[-1]
            level = frozenset(t for p in level for t in rows[p].values())
            steps.append((level, union | level))
        return steps[max(bound, 0)][1]

    def count(self, n: int) -> int:
        """The count DP over the layer's rows: no depth limit on a finite
        layer, elsewhere the enumeration limit of ``words``.  The DP is
        kept and extended, so each length is counted once."""
        if self.transitions is None:
            self.check_depth(n)
        if n < 0:
            return 0
        if self._count_walk is None:
            rows = self._rows
            self._count_walk = path_counts(self.start, lambda q: rows[q].values())
        while len(self._counts) <= n:
            self._counts.append(sum(next(self._count_walk).values()))
        return self._counts[n]

    def __repr__(self):
        return f"LanguageOracle({self.name}, k={self.alphabet.size}, n_max={self.enumeration_limit})"


class _SteppedRows(dict):
    """{state: {a: step(state, a)} over the symbols a that stay in the
    language}, each row made on its first lookup; a step that raises
    stores nothing."""

    def __init__(self, step: Callable | None, k: int):
        super().__init__()
        self.step, self.k = step, k

    def __missing__(self, q) -> dict:
        step = self.step
        got = self[q] = {a: t for a in range(self.k) if (t := step(q, a)) is not None}
        return got


def _same(w: Word) -> Word:
    return w


def _first_indices(keys: Iterable) -> dict:
    """{key: index of its first occurrence}, in order of first occurrence."""
    out: dict = {}
    for i, key in enumerate(keys):
        out.setdefault(key, i)
    return out


def path_counts(start, successors: Callable) -> Iterator[dict]:
    """Exact number of paths from ``start`` to each state after 0, 1, 2, ...
    steps, one {state: count} dict per step count, for as long as asked
    (the one count DP of layers: ``LanguageOracle.count`` and the
    zero-potential cylinder rows)."""
    vec = {start: 1}
    while True:
        yield vec
        nxt: dict = {}
        for q, c in vec.items():
            for t in successors(q):
                nxt[t] = nxt.get(t, 0) + c
        vec = nxt


class WordSet:
    """A per-length collection of words backed by an oracle.

    Either explicit sorted per-length lists up to a depth, or a predicate
    over the backing oracle's language for lazy enumeration.  Enumeration
    at each length is duplicate-free and lexicographically sorted.  A
    predicate set's members are admissible in the backing oracle:
    ``contains`` asks the oracle first.  An explicit list is taken as
    given, so it may hold words outside the language, and ``contains``
    answers True for them (ROADMAP finding 14).

    A predicate set may also declare a ``pattern`` automaton ``(start,
    step)`` read alongside the oracle's layer: ``step(p, a)`` is the next
    pattern state, or None to reject (so None is never a state).  ``paths``
    is then their product (Lind & Marcus, ch. 3), an oracle over (pattern
    state, layer state) pairs, ``count`` its count DP, and the partition
    sums of ``thermo`` a transfer DP over it.  Over a finite layer the
    product is finite too, ``layer``, and ``at`` filters its words by the
    predicate.  Over a beta or signed cocyclic layer the product steps, and
    ``count`` and the sums keep the depth errors of listing
    (``check_depth``).  The whole language builds no product: its
    ``paths`` are the oracle itself, and its transfer DP is kept on the
    oracle.  The contract: every word the
    predicate selects is a path of ``paths``.  ``count`` and the transfer
    DP read the paths themselves, so a set is counted or summed only at
    lengths where its paths are its words: a pattern that forces a symbol
    at position j has paths shorter than j that are not members, and the
    cylinder tables of ``thermo`` read no such set.

    A predicate must be a pure function of the word: ``contains`` memoises
    its answer per word for the lifetime of the set.  An exception raised
    by the predicate (such as DepthExceededError) is not memoised.
    """

    def __init__(
        self,
        oracle: LanguageOracle,
        *,
        predicate: Callable[[Word], bool] | None = None,
        explicit: Mapping[int, Sequence[Word]] | None = None,
        depth: int | None = None,
        pattern: tuple[object, Callable] | None = None,
        is_full_language: bool = False,
        name: str = "",
    ):
        if predicate is None and explicit is None and not is_full_language:
            raise ValueError("WordSet needs a predicate, explicit words, or full-language flag")
        self.oracle = oracle
        self._predicate = predicate
        self._explicit = (
            {n: tuple(sorted(set(ws))) for n, ws in explicit.items()} if explicit is not None else None
        )
        self.depth = depth if depth is not None else oracle.enumeration_limit
        self.pattern = pattern
        self.is_full_language = is_full_language
        self.name = name
        self._cache: dict[int, tuple[Word, ...]] = {}
        self._memo: dict[Word, bool] = {}
        #: potential -> the transfer DP over ``layer`` of a pattern set; the
        #: language's is kept on the oracle (see thermo)
        self.transfer_memo: dict[Potential, object] = {}

    @cached_property
    def paths(self) -> LanguageOracle | None:
        """The oracle itself for the whole language; else the product of
        ``pattern`` and the oracle's layer, or None with no pattern: over a
        finite layer a finite-state oracle, to the set's depth; over another
        layer a stepped one with the oracle's limit and name, so that its
        ``count`` raises as listing the oracle would."""
        if self.is_full_language:
            return self.oracle
        if self.pattern is None:
            return None
        start, step = self.pattern
        oracle, rows = self.oracle, self.oracle._rows

        def product(pq, a):
            p, q = step(pq[0], a), rows[pq[1]].get(a)
            return None if p is None or q is None else (p, q)

        if oracle.transitions is None:
            return LanguageOracle(oracle.alphabet, (start, oracle.start), product,
                                  oracle.enumeration_limit, name=oracle.name)
        return LanguageOracle.finite_state(oracle.alphabet, (start, oracle.start),
                                           product, self.depth, name=self.name)

    @property
    def layer(self) -> LanguageOracle | None:
        """``paths`` where it is a finite layer, else None."""
        paths = self.paths
        return paths if paths is not None and paths.transitions is not None else None

    # -- constructors ----------------------------------------------------
    @classmethod
    def language(cls, oracle: LanguageOracle) -> "WordSet":
        """The whole language, whose ``paths`` are the oracle's own layer."""
        return cls(oracle, is_full_language=True, name=f"L({oracle.name})")

    @classmethod
    def avoiding(cls, oracle: LanguageOracle, s: Word, name: str = "L\\LsL") -> "WordSet":
        """The words of the language with no factor s.  The pattern is the
        Knuth-Morris-Pratt automaton of s (Knuth, Morris & Pratt, 1977): its
        state is the length of the longest suffix read that is a proper
        prefix of s, the failure links give the shorter ones, and completing
        s rejects.  The predicate runs the same automaton.  No word avoids
        the empty word, so that set is empty."""
        if not s:
            return cls(oracle, explicit={}, name=name)
        fail = [0, 0]  # fail[m]: the longest proper border of s[:m]
        for m in range(1, len(s)):
            b = fail[m]
            while b and s[b] != s[m]:
                b = fail[b]
            fail.append(b + (s[b] == s[m]))

        def step(m: int, a: int) -> int | None:
            while m and s[m] != a:
                m = fail[m]
            m += s[m] == a
            return None if m == len(s) else m

        def avoids(w: Word) -> bool:
            m = 0
            for a in w:
                m = step(m, a)
                if m is None:
                    return False
            return True

        return cls(oracle, predicate=avoids, pattern=(0, step), name=name)

    @classmethod
    def from_words(cls, oracle: LanguageOracle, words: Iterable[Word],
                   depth: int | None = None) -> "WordSet":
        table: dict[int, list[Word]] = {}
        for w in words:
            table.setdefault(len(w), []).append(w)
        d = depth if depth is not None else (max(table) if table else 0)
        return cls(oracle, explicit=table, depth=d)

    @classmethod
    def from_predicate(cls, oracle: LanguageOracle, predicate: Callable[[Word], bool],
                       name: str = "") -> "WordSet":
        return cls(oracle, predicate=predicate, name=name)

    @classmethod
    def empty_word_only(cls, oracle: LanguageOracle) -> "WordSet":
        return cls(oracle, explicit={0: [EMPTY_WORD]}, depth=oracle.enumeration_limit,
                   name="{epsilon}")

    @classmethod
    def empty(cls, oracle: LanguageOracle) -> "WordSet":
        return cls(oracle, explicit={}, depth=oracle.enumeration_limit, name="{}")

    def union(self, other: "WordSet") -> "WordSet":
        if other.oracle is not self.oracle:
            raise ValueError("union requires word sets over the same oracle")
        if self.known_empty:
            return other
        if other.known_empty:
            return self
        return WordSet(
            self.oracle,
            predicate=lambda w: self.contains(w) or other.contains(w),
            depth=min(self.depth, other.depth),
            name=f"({self.name} U {other.name})",
        )

    # -- queries ----------------------------------------------------------
    @property
    def known_empty(self) -> bool:
        """True when the set is explicit and holds no words at all."""
        return self._explicit is not None and all(not ws for ws in self._explicit.values())

    def contains(self, w: Word) -> bool:
        if self._explicit is not None:
            return w in self._explicit.get(len(w), ())
        got = self._memo.get(w)
        if got is None:
            got = self.oracle.contains(w) and (self.is_full_language or bool(self._predicate(w)))
            self._memo[w] = got
        return got

    def at(self, n: int) -> tuple[Word, ...]:
        """The set's words of length n, sorted.  Past the set's depth,
        DepthExceededError; the whole language leaves that to its oracle's
        ``words``, which reports the enumeration limit.  A predicate set
        filters the words of its ``layer`` where it has one, else those of
        the oracle, and either way raises the oracle's error past its
        limit."""
        self._check_depth(n)
        if n in self._cache:
            return self._cache[n]
        if self._explicit is not None:
            out = self._explicit.get(n, ())
        elif self.is_full_language:
            out = self.oracle.words(n)
        elif self.layer is not None:
            self.oracle.check_depth(n)  # the layer's own limit is the set's depth
            out = tuple(filter(self._predicate, self.layer.words(n)))
        else:
            out = tuple(filter(self._predicate, self.oracle.words(n)))
        self._cache[n] = out
        return out

    def count(self, n: int) -> int:
        """|D_n|: the count DP of ``paths`` where the set has a pattern (no
        depth limit over a finite layer; elsewhere the set's depth, then the
        oracle's limit, raise as ``at`` does), else len(at(n))."""
        paths = self.paths
        if paths is None:
            return len(self.at(n))
        if paths.transitions is None:
            self.check_depth(n)
        return paths.count(n)

    def check_depth(self, n: int) -> None:
        """The DepthExceededError that listing length n raises, in its
        order: past the set's depth, then past the oracle's limit.  A set
        over stepped paths asks it before it counts or sums them."""
        self._check_depth(n)
        self.oracle.check_depth(n)

    def _check_depth(self, n: int) -> None:
        """DepthExceededError past the set's depth, except on the whole
        language, whose oracle reports its own limit."""
        if n > self.depth and not self.is_full_language:
            raise DepthExceededError(f"length {n} exceeds word-set depth {self.depth}")

    def __repr__(self):
        return f"WordSet({self.name or 'anon'}, depth={self.depth})"


@dataclass(frozen=True, eq=False)
class Potential:
    """A locally constant potential reading ``window`` coordinates.

    ``table`` maps every admissible window word (length = ``window``) to a
    real value.  A potential compares and hashes by identity, so it keys the
    memos of phi_hat and the transfer DP.
    """

    window: int
    table: Mapping[Word, float]

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("potential range must be >= 1")

    @classmethod
    def zero(cls, alphabet: Alphabet) -> "Potential":
        return cls(1, {(i,): 0.0 for i in range(alphabet.size)})

    @classmethod
    def from_strings(cls, alphabet: Alphabet, window: int,
                     table: Mapping[str, float]) -> "Potential":
        return cls(window, {alphabet.word(k): float(v) for k, v in table.items()})

    @classmethod
    def indicator(cls, alphabet: Alphabet, pattern: str, scale: float = 1.0) -> "Potential":
        """scale * 1_[pattern] as a range-|pattern| potential (all admissible
        windows are looked up with default 0)."""
        w = alphabet.word(pattern)
        return cls(len(w), _IndicatorTable(w, scale))

    @cached_property
    def is_zero(self) -> bool:
        """Computed once: like phi_hat's memo, it needs the table unchanged."""
        return all(v == 0.0 for v in self.table.values())

    def value(self, window_word: Word) -> float:
        try:
            return float(self.table[window_word])
        except KeyError:
            raise NotInLanguageError(
                f"potential table has no entry for window {window_word}"
            ) from None

    def window_sum(self, w: Word, start: int, stop: int) -> float:
        """fsum of the values of the windows of w that start at offsets
        start..stop-1 (0-based)."""
        r, table = self.window, self.table
        try:
            return math.fsum([table[w[j : j + r]] for j in range(start, stop)])
        except KeyError as exc:
            raise NotInLanguageError(
                f"potential table has no entry for window {exc.args[0]}"
            ) from None

    def sup_norm(self) -> float:
        return max((abs(v) for v in self.table.values()), default=0.0)

    def table_spread(self) -> float:
        vals = list(self.table.values())
        return (max(vals) - min(vals)) if vals else 0.0


class _IndicatorTable:
    """Total table for indicator potentials: pattern -> scale, else 0."""

    def __init__(self, pattern: Word, scale: float):
        self.pattern = pattern
        self.scale = float(scale)

    def __getitem__(self, w: Word) -> float:
        return self.scale if w == self.pattern else 0.0

    def values(self) -> tuple[float, float]:
        """The values of the pattern's window and of every other window."""
        return self.scale, 0.0


def distortion_bound(potential: Potential) -> float:
    """A valid bound on |S_n phi(x) - S_n phi(y)| within any common n-cylinder.

    For a range-r locally constant potential, Birkhoff sums over a common
    n-cylinder differ only in the last r-1 windows, so
    (r-1) * (max table value - min table value) dominates the true
    sup-difference.  Zero for r = 1 and for constant potentials.
    """
    return (potential.window - 1) * potential.table_spread()


def phi_hat(potential: Potential, oracle: LanguageOracle, w: Word) -> float:
    """Exact sup of the |w|-step Birkhoff sum over the cylinder [w].

    For a range-r potential the supremum is the fsum of the windows inside
    w plus ``phi_tail`` of the state after w and w's last min(|w|, r-1)
    symbols: the max over admissible (r-1)-symbol extensions of the windows
    that start inside w.  phi_hat of the empty word is 0 by convention.

    Values are memoised per (oracle, potential) for the oracle's lifetime,
    keyed by word, so a potential's table must not be mutated after its
    first use.  An evaluation that raises (such as NotInLanguageError) is
    not memoised.
    """
    if not w:
        return 0.0
    memo = _phi_memos(potential, oracle)[0]
    got = memo.get(w)
    if got is None:
        got = memo[w] = _phi_hat(potential, oracle, w)
    return got


def _phi_memos(potential: Potential, oracle: LanguageOracle) -> tuple[dict, dict]:
    """The phi_hat and phi_tail memos of one oracle and potential."""
    entry = oracle._phi_memo.get(potential)
    if entry is None:
        entry = oracle._phi_memo[potential] = ({}, {})
    return entry


def phi_tail(potential: Potential, oracle: LanguageOracle, q, s: Word) -> float | None:
    """What phi_hat adds to the windows that lie inside a word w: the max
    over the admissible (r-1)-symbol extensions e of w, read from the
    oracle's rows at the state q after w, of the windows of s + e that
    start inside s, where s is the last min(|w|, r-1) symbols of w.  It
    depends on w only through (q, s); None when w has no such extension.

    The extensions are the oracle's, whatever word set w is drawn from:
    phi_hat is a sup over the cylinder in the shift.  Memoised with phi_hat
    by (q, s); an evaluation that raises is not.  Raises
    NotInLanguageError for a window the potential's table lacks."""
    r = potential.window
    if r == 1:
        return 0.0
    memo = _phi_memos(potential, oracle)[1]
    got = memo.get((q, s))
    if got is None:
        rows = oracle._rows
        paths = [(s, q)]
        for _ in range(r - 1):
            paths = [(u + (a,), t) for u, p in paths for a, t in rows[p].items()]
        if not paths:
            return None
        # in lexicographic order, so ties keep the first maximum
        got = memo[q, s] = max(potential.window_sum(u, 0, len(s)) for u, _ in paths)
    return got


def _phi_hat(potential: Potential, oracle: LanguageOracle, w: Word) -> float:
    """phi_hat without the memo."""
    q = oracle.state(w)
    if q is None:
        raise NotInLanguageError(f"word {w} not in language of {oracle.name}")
    if potential.is_zero:
        return 0.0
    r = potential.window
    n = len(w)
    fixed = potential.window_sum(w, 0, n - r + 1) if n >= r else 0.0
    if r == 1:
        return fixed
    tail = phi_tail(potential, oracle, q, w[max(0, n - r + 1):])
    if tail is None:
        raise NotInLanguageError(
            f"word {w} has no admissible {r - 1}-symbol extension (oracle not extendable)"
        )
    return fixed + tail


def chunked_fsum(terms: Sequence[float]) -> float:
    """fsum of the fsums of fixed-size chunks, taken in canonical order."""
    n = len(terms)
    if n <= _SUM_CHUNK:
        return math.fsum(terms)
    return math.fsum([math.fsum(terms[i : i + _SUM_CHUNK]) for i in range(0, n, _SUM_CHUNK)])


def log_sum_exp(vals: Sequence[float]) -> float:
    """log of the sum of exp(v), shifted by the max and chunk-summed."""
    m = max(vals)
    return m + math.log(chunked_fsum([math.exp(v - m) for v in vals]))
