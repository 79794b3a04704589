"""Synchronising triples, freely concatenable families, irreducible
generators, unique decipherability, the countable-state tower with its
1-block coding, loop partition sums, and marking-set analysis.

All certificates here are depth-bounded: a triple is "synchronising" in the
sense that the defining property was verified exhaustively for words up to
``cert_depth``, and every report carries that depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import groupby, product
from typing import Callable, Iterable, Sequence

from .core import (
    Alphabet,
    CodeAutomaton,
    EMPTY_WORD,
    LanguageOracle,
    Potential,
    Word,
    WordSet,
    distortion_bound,
    phi_hat,
)
from .errors import (
    CertExhaustedError,
    InconsistentDecipherabilityError,
    NotInLanguageError,
    NotSpecifiedError,
    PeriodicFamilyError,
)
from . import thermo
from .thermo import NEG_INF, rate_estimate

LOG2 = math.log(2.0)


# ---------------------------------------------------------------------------
# Synchronising triples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyncTriple:
    r: Word
    c: Word
    s: Word
    cert_depth: int
    no_long_overlaps: bool = False

    @property
    def pattern(self) -> Word:
        return self.r + self.c + self.s


def _ending_with(good: WordSet, suffix: Word, max_len: int) -> list[Word]:
    out = []
    for m in range(len(suffix), max_len + 1):
        out.extend(w for w in good.at(m) if w[len(w) - len(suffix):] == suffix)
    return out


def _starting_with(good: WordSet, prefix: Word, max_len: int) -> list[Word]:
    out = []
    for m in range(len(prefix), max_len + 1):
        out.extend(w for w in good.at(m) if w[: len(prefix)] == prefix)
    return out


class _LexLevels:
    """A lexicographically-first DP over a finite layer: ``levels[n]`` is
    [(node, least word of length n reaching it)], in the order of those
    words, each level made from the last by ``grow(oracle, level)``.  The
    levels stop at the first node set that repeats an earlier one: each
    level's nodes are a function of the last level's, so the sets that
    follow would repeat too and reach no node first."""

    def __init__(self, root, grow: Callable):
        self.levels = [[(root, EMPTY_WORD)]]
        self.grow = grow
        self._seen = {frozenset([root])}
        self._closed = False

    def upto(self, oracle: LanguageOracle, n: int) -> list[list[tuple]]:
        """Levels 0..n, fewer where the node sets start to repeat."""
        levels = self.levels
        while not self._closed and len(levels) <= n:
            nxt = self.grow(oracle, levels[-1])
            nodes = frozenset(nxt)
            if nodes in self._seen:
                self._closed = True
            else:
                self._seen.add(nodes)
                levels.append(list(nxt.items()))
        return levels[: max(n + 1, 0)]


def _appended(oracle: LanguageOracle, level: list[tuple[int, Word]]) -> dict:
    """The next level of least words by state: symbols appended, ascending,
    to each word in order, so each state is met first through its least
    word."""
    rows, nxt = oracle.transitions, {}
    for q, w in level:
        for a, t in rows[q].items():
            if t not in nxt:
                nxt[t] = w + (a,)
    return nxt


def _prepended(oracle: LanguageOracle, level: list[tuple[frozenset[int], Word]]) -> dict:
    """The next level of least words by nonempty domain: domain(a.y) is the
    preimage under a of domain(y), so symbols a are prepended, ascending,
    each to every word in order, and each domain is met first through its
    least word."""
    nxt = {}
    for a in range(oracle.alphabet.size):
        for dom, w in level:
            got = oracle.preimage(a, dom)
            if got and got not in nxt:
                nxt[got] = (a,) + w
    return nxt


class _FirstWords:
    """The two class DPs that the synchronisation checks read in place of
    lists of words, kept on a finite-layer oracle (``_first_words``) and
    extended by length: the least word reaching each layer state
    (``states``), and the least word with each nonempty domain, the states
    from which it can be read (``domains``; Lind & Marcus, sec. 3.3)."""

    def __init__(self, oracle: LanguageOracle):
        self.states = _LexLevels(oracle.start, _appended)
        self.domains = _LexLevels(frozenset(range(len(oracle.transitions))), _prepended)


def _first_words(oracle: LanguageOracle) -> _FirstWords:
    if oracle._first_words is None:
        oracle._first_words = _FirstWords(oracle)
    return oracle._first_words


def _read(rows: list[dict[int, int]], q: int | None, w: Word) -> int | None:
    """q.w on a finite layer, None once it dies."""
    for a in w:
        if q is None:
            return None
        q = rows[q].get(a)
    return q


def _check_lengths(oracle: LanguageOracle, lengths: range) -> None:
    """DepthExceededError at the first length past the enumeration limit, as
    listing the words of each length in turn would raise."""
    for n in lengths:
        oracle.check_depth(n)


def _left_classes(oracle: LanguageOracle, suffix: Word, tail: Word, longest: int) -> dict:
    """{state(x.suffix.tail): x} on a finite layer, for the least x of each
    key by length, then lexicographically, over the x with |x| <= longest
    and x.suffix a word; the key is None where x.suffix.tail is no word.
    The key is read once per state of x."""
    rows, out, keys = oracle.transitions, {}, {}
    for level in _first_words(oracle).states.upto(oracle, longest):
        for q, x in level:
            if q not in keys:
                t = _read(rows, q, suffix)
                keys[q] = (t is not None, _read(rows, t, tail))
            alive, key = keys[q]
            if alive and key not in out:
                out[key] = x
    return out


def _right_classes(oracle: LanguageOracle, prefix: Word, longest: int, *,
                   through_prefix: bool = True) -> dict:
    """{domain(prefix.y): y} on a finite layer (domain(y) when not
    ``through_prefix``), for the least y of each key by length, then
    lexicographically, over the y with |y| <= longest and prefix.y a word.
    A domain D is kept when it holds state(prefix), and its key {t:
    t.prefix in D} is made once."""
    rows = oracle.transitions
    q = oracle.state(prefix)
    ends = [_read(rows, t, prefix) for t in range(len(rows))]
    out, keys = {}, {}
    for level in _first_words(oracle).domains.upto(oracle, longest):
        for dom, y in level:
            if q not in dom:
                continue
            key = keys.get(dom)
            if key is None:
                key = keys[dom] = frozenset(
                    t for t, e in enumerate(ends) if e in dom) if through_prefix else dom
            if key not in out:
                out[key] = y
    return out


def _pair_classes(oracle: LanguageOracle, good: WordSet, r: Word, c: Word, s: Word,
                  depth: int, *, rights_first: bool) -> tuple[dict, dict, Callable]:
    """The good words r' ending with r and s' starting with s, of length at
    most depth, by the classes of ``LanguageOracle.connector_classes``: {key:
    first r'} with r'.c keyed, {key: first s'}, and ``search(left key, right
    key, lengths)``, which yields the connectors u with r'.c.u.s' good, for
    every r', s' in those classes.

    Where the good set is the whole language over a finite layer, the keys
    are state(r'.c) and domain(s'), read from the class DPs
    (``_left_classes``, ``_right_classes``) without listing a word, and the
    search walks the followers of the state.  Elsewhere both lists are
    listed and handed to ``connector_classes``.  Either way keys come in
    the (length, lexicographic) order of their first words, so a scan over
    key pairs meets the same first pair, and a list past the enumeration
    limit raises the same error (the rights first when ``rights_first``)."""
    if oracle.transitions is not None and good.is_full_language and good.oracle is oracle:
        spans = [range(len(r), depth + 1), range(len(s), depth + 1)]
        for span in spans[::-1] if rights_first else spans:
            _check_lengths(oracle, span)
        return ({k: x + r for k, x in _left_classes(oracle, r, c, depth - len(r)).items()},
                {k: s + y for k, y in _right_classes(oracle, s, depth - len(s)).items()},
                oracle._walk)
    if rights_first:
        right_words, left_words = _starting_with(good, s, depth), _ending_with(good, r, depth)
    else:
        left_words, right_words = _ending_with(good, r, depth), _starting_with(good, s, depth)
    left_keys, right_keys, search = oracle.connector_classes(
        [w + c for w in left_words], right_words, good.contains)
    return ({k: left_words[i] for k, i in left_keys.items()},
            {k: right_words[j] for k, j in right_keys.items()}, search)


def verify_sync_triple(triple: SyncTriple, oracle: LanguageOracle, good: WordSet,
                       cert_depth: int) -> tuple[Word, Word] | None:
    """Exhaustive check of the triple property up to cert_depth; returns a
    failing (r', s') pair or None.  r'.c.s' is good iff the empty connector
    joins r'.c to s', so the check reads one r' and one s' per class of
    ``_pair_classes``: with the whole language over a finite layer, one
    per state(r'.c) and one per domain(s'), and no word is listed; a r'
    with r'.c no word is a class of its own, on which the check fails."""
    lefts, rights, search = _pair_classes(oracle, good, triple.r, triple.c, triple.s,
                                          cert_depth, rights_first=True)
    for (kl, left), (kr, right) in product(lefts.items(), rights.items()):
        if next(search(kl, kr, (0,)), None) is None:
            return (left, right)
    return None


def find_sync_triple(
    oracle: LanguageOracle,
    good: WordSet,
    tau: int,
    seed_v: Word,
    seed_w: Word,
    cert_depth: int,
) -> SyncTriple:
    """Connector-set refinement: grow the seed pair (extending one word on
    the right, the other on the left) while the set of connectors strictly
    shrinks; when no enumerated extension shrinks it further, the pair is a
    synchronising triple candidate, and the property is then verified
    exhaustively to cert_depth.

    A round reads one extension per class of ``_pair_classes``, since the
    connectors of a pair depend on its classes alone.  With the whole
    language over a finite layer those are one x.p per state and one q.y
    per domain, read from the class DPs, so no round lists a word; stepped
    layers and other good sets list both extensions and key them with
    ``connector_classes``.  Both meet the pairs in the same order.

    The caller asserts that the good set satisfies the gluing condition for
    this tau; if the final verification fails, NotSpecifiedError is raised
    when the gluing condition itself fails at depth, otherwise
    CertExhaustedError.
    """
    q = seed_v  # will absorb right-extensions (starts every good continuation)
    p = seed_w  # will absorb left-extensions (ends every good continuation)
    if not (good.contains(q) and good.contains(p)):
        raise NotSpecifiedError("seed words must lie in the good set")
    current = frozenset(oracle.connectors(p, q, range(tau + 1), good.contains))
    if not current:
        raise NotSpecifiedError(
            f"seed pair has no connector of length <= {tau}; gluing fails"
        )
    while True:
        lefts, rights, search = _pair_classes(oracle, good, p, EMPTY_WORD, q, cert_depth,
                                              rights_first=False)
        for (kq, right), (kp, left) in product(rights.items(), lefts.items()):
            cs = frozenset(search(kp, kq, range(tau + 1)))
            if cs < current:
                if not cs:
                    raise NotSpecifiedError(
                        f"pair ({left}, {right}) in the good set has no connector; "
                        "gluing fails"
                    )
                p, q, current = left, right, cs
                break
        else:
            break
    c = min(current, key=lambda u: (len(u), u))
    triple = SyncTriple(r=p, c=c, s=q, cert_depth=cert_depth,
                        no_long_overlaps=False)
    bad = verify_sync_triple(triple, oracle, good, cert_depth)
    if bad is not None:
        from .decomp import TripleCollections, check_spec_I

        probe = check_spec_I(TripleCollections(
            WordSet.empty_word_only(oracle), good, WordSet.empty_word_only(oracle), tau),
            oracle, min(cert_depth, 6))
        if not probe.passed:
            raise NotSpecifiedError(f"gluing condition fails at depth; witness {bad}")
        raise CertExhaustedError(
            f"refinement stabilized but the triple property fails for {bad} at depth {cert_depth}"
        )
    overlaps = overlap_violations(triple, oracle)
    return replace(triple, no_long_overlaps=not overlaps)


def overlap_violations(triple: SyncTriple, oracle: LanguageOracle) -> list[tuple[int, Word]]:
    """Exact scan of the self-overlap condition: for each shift k up to
    max(|rc|, |cs|) the word forced by a k-shifted double occurrence of rcs
    is constructed and tested for admissibility."""
    pat = triple.pattern
    n = len(pat)
    out: list[tuple[int, Word]] = []
    kmax = max(len(triple.r) + len(triple.c), len(triple.c) + len(triple.s))
    for k in range(1, kmax + 1):
        # a k-shifted double occurrence forces pat[k + i] == pat[i] on the
        # overlap and determines the whole word of length n + k
        if any(pat[k + i] != pat[i] for i in range(n - k)):
            continue
        x = pat[:k] + pat
        if oracle.contains(x):
            out.append((k, x))
    return out


def _family_is_periodic(good: WordSet, depth: int) -> bool:
    """Depth-certified test: does one periodic orbit contain every
    enumerated good word as a factor?"""
    words: list[Word] = []
    for m in range(1, depth + 1):
        words.extend(good.at(m))
    if not words:
        return True
    longest = max(words, key=lambda w: (len(w), w))
    n = len(longest)
    for d in range(1, n + 1):
        if any(longest[i + d] != longest[i] for i in range(n - d)):
            continue
        orbit = longest[:d]
        ok = True
        for w in words:
            reps = orbit * (-(-(len(w)) // d) + 1)
            if not any(reps[i : i + len(w)] == w for i in range(d)):
                ok = False
                break
        if ok:
            return True
    return False


def _is_k_periodic(w: Word, k: int) -> bool:
    return all(w[i + k] == w[i] for i in range(len(w) - k))


def ensure_no_long_overlaps(
    triple: SyncTriple,
    oracle: LanguageOracle,
    good: WordSet,
    cert_depth: int,
    *,
    tau: int | None = None,
) -> SyncTriple:
    """Returns a synchronising triple satisfying the self-overlap condition.

    If the input triple already passes the exact overlap scan it is returned
    with the flag set.  Otherwise the triple is extended to
    (v.u.r, c, s.u'.w) where w is a good word that is not k-periodic for any
    k <= alpha |w| (alpha fixed from the observed doubling rate of the good
    set), v is a good word that is not a subword of w, and u, u' are
    connectors; candidates are scanned in deterministic order and the first
    extension passing the exact overlap scan and the depth-certified triple
    verification is returned.
    """
    if not overlap_violations(triple, oracle):
        out = replace(triple, no_long_overlaps=True, cert_depth=cert_depth)
        return out
    if _family_is_periodic(good, cert_depth):
        raise PeriodicFamilyError("every enumerated good word lies on one periodic orbit")
    t = tau if tau is not None else len(triple.c)
    k = oracle.alphabet.size
    ell = _doubling_scale(good, len(triple.c), cert_depth)
    alpha = 0.5 * LOG2 / (ell * math.log(max(2, k)))

    for nw in range(1, cert_depth + 1):
        for w in good.at(nw):
            if any(_is_k_periodic(w, kk) for kk in range(1, int(alpha * nw) + 1)):
                continue
            for nv in range(1, cert_depth + 1):
                for v in good.at(nv):
                    if any(w[i : i + nv] == v for i in range(nw - nv + 1)):
                        continue  # v occurs inside w
                    for u in oracle.connectors(v, triple.r, range(t + 1), good.contains):
                        for u2 in oracle.connectors(triple.s, w, range(t + 1), good.contains):
                            cand = SyncTriple(v + u + triple.r, triple.c, triple.s + u2 + w,
                                              cert_depth, False)
                            if overlap_violations(cand, oracle):
                                continue
                            if verify_sync_triple(cand, oracle, good, cert_depth) is None:
                                return replace(cand, no_long_overlaps=True)
    raise CertExhaustedError(
        f"no overlap-free extension found within depth {cert_depth}"
    )


def _doubling_scale(good: WordSet, c_len: int, depth: int) -> int:
    """Smallest ell with #good_{n} >= 2^{(n + c_len)/ell} on the enumerated
    lengths (the finite surrogate of the doubling property)."""
    for ell in range(1, depth + 1):
        ok = True
        for n in range(1, depth + 1):
            cnt = len(good.at(n))
            if cnt == 0:
                continue
            if cnt < 2 ** ((n + c_len) / ell):
                ok = False
                break
        if ok:
            return ell
    return depth


# ---------------------------------------------------------------------------
# Free families and irreducible generators
# ---------------------------------------------------------------------------

def _code_run(code: Sequence[Word], n_symbols: int, depth: int) -> tuple[LanguageOracle, list[bool]]:
    """The code automaton run from its boundary, tabulated once over the
    symbols below n_symbols and those of the code (enumeration limit
    depth), and which of its states are final, that is hold the boundary:
    a word is a concatenation of codewords iff its run ends on a final
    state."""
    automaton = CodeAutomaton(code)
    run = LanguageOracle.finite_state(
        Alphabet.of_size(max([n_symbols] + [a + 1 for w in code for a in w])),
        automaton.boundary, lambda states, a: automaton.step(states, a) or None, depth)
    return run, [automaton.boundary <= states for states in run.labels]


class FreeFamily:
    """A freely concatenable family to a depth, its irreducible words, and
    the gcd of their lengths.  With ``members`` None it is the star closure
    of its irreducible words: ``contains`` runs their code automaton,
    tabulated once from the boundary, and ``members`` is listed only when
    read."""

    def __init__(self, oracle: LanguageOracle, depth: int,
                 members: dict[int, tuple[Word, ...]] | None,
                 irreducibles: dict[int, tuple[Word, ...]], gcd_lengths: int):
        self.oracle = oracle
        self.depth = depth
        self.irreducibles = irreducibles
        self.gcd_lengths = gcd_lengths
        if members is None:
            self._code, self._final = _code_run(self.irreducible_words(), oracle.alphabet.size, depth)
        else:
            self._code = None
            self.members = members

    @cached_property
    def members(self) -> dict[int, tuple[Word, ...]]:
        # the words whose code run stays alive are the prefixes of
        # concatenations; keep the concatenations
        return {n: tuple(filter(self.contains, self._code.words(n))) for n in range(1, self.depth + 1)}

    def contains(self, w: Word) -> bool:
        code = self._code
        if code is None:
            return w in self._member_sets.get(len(w), frozenset())
        if not 0 < len(w) <= self.depth:
            return False
        q = code.state(w)
        return q is not None and self._final[q]

    @cached_property
    def _member_sets(self) -> dict[int, frozenset[Word]]:
        return {n: frozenset(ws) for n, ws in self.members.items()}

    def splits(self, w: Word) -> bool:
        """Whether w is the concatenation of two members."""
        return any(self.contains(w[:t]) and self.contains(w[t:]) for t in range(1, len(w)))

    def irreducible_words(self) -> list[Word]:
        return [w for n in sorted(self.irreducibles) for w in self.irreducibles[n]]


def build_free_family(
    triple: SyncTriple,
    oracle: LanguageOracle,
    good: WordSet,
    depth: int,
) -> FreeFamily:
    """F = c.(sL n Lr n G) enumerated to depth; irreducibles by testing all
    proper splits; gcd of the irreducible lengths."""
    r, c, s = triple.r, triple.c, triple.s
    members: dict[int, list[Word]] = {}
    for m in range(max(len(r), len(s)), depth - len(c) + 1):
        for b in good.at(m):
            if b[: len(s)] == s and b[len(b) - len(r):] == r:
                members.setdefault(len(c) + m, []).append(c + b)
    fam = {n: tuple(sorted(ws)) for n, ws in members.items()}
    return _finish_family(oracle, depth, fam)


def free_family_from_irreducibles(
    oracle: LanguageOracle,
    irreducibles: Iterable[Word],
    depth: int,
) -> FreeFamily:
    """The star closure of an explicit irreducible set, to depth.

    Validates that the concatenations of length <= depth stay in the
    language and that no irreducible word splits into others (I n II must
    be empty).  The first check is a breadth-first search of the product of
    the code automaton, run from its boundary, with the oracle's layer, so
    the closure is never listed; it raises NotInLanguageError naming the
    lexicographically least concatenation that leaves the language, at the
    shortest length: a finding about the shift, not a malformed input.  Only
    the supplied words need the split test: every other member is u + v
    for a supplied u and a nonempty member v, so it is reducible."""
    irr = sorted(set(irreducibles), key=lambda w: (len(w), w))
    if any(len(w) == 0 for w in irr):
        raise ValueError("irreducible words must be nonempty")
    if any(a < 0 for w in irr for a in w):
        raise ValueError("irreducible words must be over symbol indices >= 0")
    kept = [w for w in irr if len(w) <= depth]
    irreducibles = {n: tuple(ws) for n, ws in groupby(kept, key=len)}
    out = FreeFamily(oracle, depth, None, irreducibles, math.gcd(*irreducibles))
    rows, final = out._code.transitions, out._final
    # (code state, oracle state or None once out of the language) -> the
    # least word reaching it; words are extended in lexicographic order (the
    # rows list symbols ascending), so the first word to reach a pair is the
    # least
    level = {(out._code.start, oracle.start): EMPTY_WORD}
    for _ in range(depth):
        nxt: dict[tuple, Word] = {}
        for (s, q), w in level.items():
            for a, t in rows[s].items():
                key = (t, None if q is None else oracle.step(q, a))
                if key not in nxt:
                    nxt[key] = w + (a,)
        for (s, q), w in nxt.items():
            if q is None and final[s]:
                raise NotInLanguageError(
                    f"concatenation {w} leaves the language; not a free family")
        level = nxt
    supplied = set(kept)
    computed = {w for w in kept if not out.splits(w)}
    if supplied != computed:
        raise ValueError(
            f"supplied set is not the irreducible set of its star closure: "
            f"extra {supplied - computed}, missing {computed - supplied}"
        )
    return out


def _finish_family(oracle, depth, fam: dict[int, tuple[Word, ...]]) -> FreeFamily:
    out = FreeFamily(oracle, depth, fam, {}, 0)
    for n in sorted(fam):
        keep = tuple(w for w in fam[n] if not out.splits(w))
        if keep:
            out.irreducibles[n] = keep
    out.gcd_lengths = math.gcd(*out.irreducibles)
    return out


def check_free_concatenation(family: FreeFamily) -> list[tuple[Word, Word]]:
    """Exhaustive check of closure under juxtaposition to the family's
    depth; returns violations."""
    d = family.depth
    words = [w for n in sorted(family.members) if n <= d for w in family.members[n]]
    bad = []
    for v in words:
        for w in words:
            if len(v) + len(w) <= d and not family.contains(v + w):
                bad.append((v, w))
    return bad


# ---------------------------------------------------------------------------
# Unique decipherability (dangling-suffix elimination with witnesses)
# ---------------------------------------------------------------------------

@dataclass
class UdVerdict:
    passed: bool
    depth: int
    witness: Word | None = None
    parses: tuple[tuple[Word, ...], tuple[Word, ...]] | None = None


def is_uniquely_decipherable(code: Iterable[Word] | FreeFamily, depth: int | None = None) -> UdVerdict:
    """Dangling-suffix elimination on the finite truncation of the code.

    Fails iff some chain of dangling suffixes reaches a codeword; in that
    case the witness word with its two distinct parses is reconstructed
    from the chain's provenance.
    """
    if isinstance(code, FreeFamily):
        words = [w for w in code.irreducible_words() if depth is None or len(w) <= depth]
        d = depth if depth is not None else code.depth
    else:
        words = sorted(set(code), key=lambda w: (len(w), w))
        if depth is not None:
            words = [w for w in words if len(w) <= depth]
        d = depth if depth is not None else max((len(w) for w in words), default=0)
    codeset = set(words)

    # state: suffix -> (ahead parse, behind parse); concat(ahead) = concat(behind) + suffix
    frontier: dict[Word, tuple[tuple[Word, ...], tuple[Word, ...]]] = {}
    for u in words:
        for v in words:
            if u != v and len(u) < len(v) and v[: len(u)] == u:
                s = v[len(u):]
                frontier.setdefault(s, ((v,), (u,)))
    seen = dict(frontier)
    while frontier:
        nxt: dict[Word, tuple[tuple[Word, ...], tuple[Word, ...]]] = {}
        for s, (ahead, behind) in sorted(frontier.items()):
            for w in words:
                if len(w) >= len(s) and w[: len(s)] == s:
                    # behind + w overtakes: roles swap
                    s2 = w[len(s):]
                    if s2 == EMPTY_WORD:
                        witness = behind + (w,)
                        return UdVerdict(False, d, _concat(witness), (ahead, witness))
                    if s2 not in seen:
                        nxt[s2] = (behind + (w,), ahead)
                elif len(w) < len(s) and s[: len(w)] == w:
                    s2 = s[len(w):]
                    if s2 not in seen:
                        nxt[s2] = (ahead, behind + (w,))
        seen.update(nxt)
        frontier = nxt
    return UdVerdict(True, d)


def _concat(parts: Sequence[Word]) -> Word:
    out: list[int] = []
    for p in parts:
        out.extend(p)
    return tuple(out)


# ---------------------------------------------------------------------------
# The tower graph
# ---------------------------------------------------------------------------

@dataclass
class TowerGraph:
    """Finite truncation of the countable-state shift built from the
    irreducible words: vertices (w, k) track position k inside w, edges move
    forward inside a word or jump from the last position to the first
    position of any irreducible word.  The coding sends (w, k) to w_k."""

    oracle: LanguageOracle
    irreducibles: tuple[Word, ...]
    base: tuple[Word, int]
    depth: int

    @property
    def vertices(self) -> list[tuple[Word, int]]:
        return [(w, k) for w in self.irreducibles for k in range(1, len(w) + 1)]

    def successors(self, vertex: tuple[Word, int]) -> list[tuple[Word, int]]:
        w, k = vertex
        if k < len(w):
            return [(w, k + 1)]
        return [(u, 1) for u in self.irreducibles]

    def edge_count(self) -> int:
        inner = sum(len(w) - 1 for w in self.irreducibles)
        return inner + len(self.irreducibles) ** 2

    def symbol(self, vertex: tuple[Word, int]) -> int:
        w, k = vertex
        return w[k - 1]


def build_tower_over(
    oracle: LanguageOracle,
    irreducibles: Iterable[Word],
    depth: int,
    base_word: Word,
) -> TowerGraph:
    words = sorted({w for w in irreducibles if len(w) <= depth}, key=lambda w: (len(w), w))
    if not words:
        raise ValueError("no irreducible words within depth")
    if base_word not in words:
        raise ValueError("base word must be an enumerated irreducible")
    return TowerGraph(oracle, tuple(words), (base_word, 1), depth)


# ---------------------------------------------------------------------------
# Loop partition sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LoopRow:
    n: int
    z: float  # log Z_n (or -inf)
    z_count: int | None
    z_star: float  # log Z*_n (or -inf)
    z_star_count: int | None
    rate: float  # successive-ratio growth estimate for Z
    rate_star: float  # (1/n) log Z*_n


@dataclass
class LoopTable:
    base: tuple[Word, int]
    n_max: int
    rows: list[LoopRow]

    def z_rate_estimate(self) -> float:
        return rate_estimate((r.n, r.z) for r in self.rows)

    def z_star_rate_estimate(self) -> float:
        half = [r for r in self.rows if r.n > self.n_max // 2 and r.z_star > NEG_INF]
        if not half:
            return NEG_INF
        return max(r.z_star / r.n for r in half)

    def loop_length_gcd(self) -> int:
        g = 0
        for r in self.rows:
            if r.z > NEG_INF:
                g = math.gcd(g, r.n)
        return g


def _loop_counts(tower: TowerGraph, n_max: int, star: bool) -> list[int]:
    """Exact integer counts of the length-n loops at the base (first-return
    loops when star=True) for every n <= n_max, indexed by n.  A loop reads
    the base word b, then irreducible words (none equal to b for a first
    return), so Z_n = P(n - |b|), where P(m) = sum_w P(m - |w|) counts the
    parses of length m."""
    b = tower.base[0]
    words = [w for w in tower.irreducibles if not (star and w == b)]
    parses = [1]
    for m in range(1, n_max + 1):
        parses.append(sum(parses[m - len(w)] for w in words if len(w) <= m))
    return ([0] * len(b) + parses)[:n_max + 1]


def _logaddexp(a: float, b: float) -> float:
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def _block_graph(tower: TowerGraph, potential: Potential,
                 n_max: int) -> tuple[list[bool], list[list[tuple[int, float]]]]:
    """The tower's (r-1)-block graph (Lind & Marcus, section 2.3) on integer
    indices, as far as walks of n_max steps from the base reach.

    A block is a path of h = max(r-1, 1) vertices.  An edge appends a
    successor u of the last vertex and weighs phi of the first r vertices of
    block + (u,), so a closed walk of n steps sums phi along the periodic
    word, windows wrapping.  The blocks are those within n_max edges of the
    starts, the h-vertex paths from the base, numbered in sorted block
    order; a block within n_max - 1 edges keeps its out-edges as (target
    index, weight) in ``successors`` order, a farther one (never left by a
    walk of n_max steps) none.  Returns, by index, whether the block begins
    at the base, and its out-edges."""
    r, base = potential.window, tower.base
    value, sym, successors = potential.value, tower.symbol, tower.successors
    starts = [(base,)]
    for _ in range(r - 2):  # grow them to h vertices
        starts = [b + (u,) for b in starts for u in successors(b[-1])]
    arcs: dict[tuple, list[tuple[tuple, float]]] = {}
    seen, frontier = set(starts), starts
    for _ in range(n_max):
        nxt = []
        for block in frontier:
            out = arcs[block] = [(block[1:] + (u,), value(tuple(sym(x) for x in (block + (u,))[:r])))
                                 for u in successors(block[-1])]
            for block2, _ in out:
                if block2 not in seen:
                    seen.add(block2)
                    nxt.append(block2)
        frontier = nxt
    blocks = sorted(seen)
    index = {b: i for i, b in enumerate(blocks)}
    edges = [[(index[b2], weight) for b2, weight in arcs.get(b, ())] for b in blocks]
    return [b[0] == base for b in blocks], edges


def _loop_logs(at_base: list[bool], edges: list[list[tuple[int, float]]], n_max: int,
               star: bool) -> list[float]:
    """log of the phi-weighted loop sums at the base (first-return loops when
    star=True) for every n <= n_max, indexed by n, as closed walks on the
    block graph of ``_block_graph``.

    Closed walks correspond one to one with the periodic paths of the
    tower, so the sums are exact for every n >= 1.  Z_n adds up the walks
    from B back to B over the start blocks B, those that begin at the base;
    for Z*_n the walks whose block begins at the base again are dropped once
    their step is recorded.  Starts and reached blocks are visited in index
    order, which is sorted block order, so every sum is reproducible.
    """
    logaddexp, size = _logaddexp, len(edges)
    kept = [not (star and b) for b in at_base]
    out = [NEG_INF] * (n_max + 1)
    for start in [i for i, b in enumerate(at_base) if b]:
        table = [(start, 0.0)]  # the reached blocks and their log sums, by index
        for n in range(1, n_max + 1):
            nxt: list[float | None] = [None] * size  # None: not reached
            for i, acc in table:
                for j, weight in edges[i]:
                    v = nxt[j]
                    nxt[j] = logaddexp(NEG_INF if v is None else v, acc + weight)
            v = nxt[start]
            out[n] = logaddexp(out[n], NEG_INF if v is None else v)
            table = [(j, v) for j, v in enumerate(nxt) if v is not None and kept[j]]
    return out


def loop_sums(
    tower: TowerGraph,
    potential: Potential,
    n_max: int,
    *,
    cross_check: bool = True,
) -> LoopTable:
    """Z_n and first-return Z*_n tables at the tower base.

    Computed in one pass for all n <= n_max: exact integer counts from
    parse counts at zero potential (see _loop_counts), else closed walks
    on the tower's (r-1)-block graph, built once for both tables (see
    _block_graph and _loop_logs), exact for every n.
    The ``rate`` column is ``rate_estimate`` of the supported rows so far.

    The counts and sums run over parses, so they count loops only when the
    irreducible words are uniquely decipherable.  ``cross_check`` asks
    that: at zero potential by Sardinas-Patterson, naming the witness and
    its two parses, otherwise by comparing the loop sums with the words'
    phi_hat sums over parses within a distortion envelope, which cannot
    see a failure (ROADMAP finding 10).  A failure raises
    InconsistentDecipherabilityError.
    """
    base_word = tower.base[0]
    rows: list[LoopRow] = []
    zero = potential.is_zero
    if zero:
        full, first = _loop_counts(tower, n_max, False), _loop_counts(tower, n_max, True)
    else:
        graph = _block_graph(tower, potential, n_max)
        full, first = _loop_logs(*graph, n_max, False), _loop_logs(*graph, n_max, True)
    supported: list[tuple[int, float]] = []  # (n, log Z_n) where Z_n > 0
    for n in range(1, n_max + 1):
        if zero:
            zc, zsc = full[n], first[n]
            z = math.log(zc) if zc else NEG_INF
            zs = math.log(zsc) if zsc else NEG_INF
        else:
            zc = zsc = None
            z, zs = full[n], first[n]
        if z > NEG_INF:
            supported.append((n, z))
        rate = rate_estimate(supported[-2:]) if z > NEG_INF else NEG_INF
        rate_star = zs / n if zs > NEG_INF else NEG_INF
        rows.append(LoopRow(n, z, zc, zs, zsc, rate, rate_star))

    if cross_check and zero:
        verdict = is_uniquely_decipherable(tower.irreducibles)
        if not verdict.passed:
            text = tower.oracle.alphabet.text
            ahead, behind = ("|".join(map(text, parse)) for parse in verdict.parses)
            raise InconsistentDecipherabilityError(
                f"the irreducible words are not uniquely decipherable: {text(verdict.witness)} "
                f"parses as {ahead} and as {behind}"
            )
    elif cross_check:
        irr = tower.irreducibles
        lmin = min(len(w) for w in irr)
        oracle = tower.oracle
        weights = {w: phi_hat(potential, oracle, w) for w in irr}
        glog = [NEG_INF] * (n_max + 1)
        glog[0] = 0.0
        for m in range(1, n_max + 1):
            acc = NEG_INF
            for w in irr:
                L = len(w)
                if L <= m and glog[m - L] > NEG_INF:
                    acc = _logaddexp(acc, weights[w] + glog[m - L])
            glog[m] = acc
        dist = distortion_bound(potential)
        sup = potential.sup_norm()
        base_hat = phi_hat(potential, oracle, base_word)
        for row in rows:
            n, m = row.n, row.n - len(base_word)
            ws = (glog[m] + base_hat) if m >= 0 else NEG_INF
            if ws > NEG_INF and row.z > NEG_INF:
                parts = 1 + n // lmin
                tol = dist * (2 + parts) + len(base_word) * sup + 1e-9  # float slack
                gap = abs(row.z - ws)
                if gap > tol:
                    raise InconsistentDecipherabilityError(
                        f"loop sum and word-side sum differ by {gap:.6g} > {tol:.6g} at n={n}"
                    )
    return LoopTable(tower.base, n_max, rows)


@dataclass
class SprReport:
    table: LoopTable
    z_rate: float
    z_star_rate: float
    gap: float
    margin: float
    verdict: str
    flags: dict[str, bool]
    generator_rate: float
    family_rate: float


def spr_diagnostic(
    tower: TowerGraph,
    potential: Potential,
    n_max: int,
    *,
    margin: float = 0.05,
    table: LoopTable | None = None,
) -> SprReport:
    """Strong-positive-recurrence diagnostic: the growth rate of the
    first-return sums must stay below the growth rate of the full loop sums
    by the margin over the top half of the table.  Also reports the finite
    rates of the generator sums versus the family sums (the strict
    inequality that removing a generator would force).  ``table`` is the
    cross-checked ``loop_sums`` of the tower to n_max, when already built."""
    t = table if table is not None else loop_sums(tower, potential, n_max)
    z_rate = t.z_rate_estimate()
    zs_rate = t.z_star_rate_estimate()
    gap = z_rate - zs_rate if zs_rate > NEG_INF else float("inf")
    flags: dict[str, bool] = {}
    flags["single_loop"] = len(tower.irreducibles) <= 1
    flags["z_star_empty_top_half"] = zs_rate == NEG_INF
    degenerate = flags["single_loop"]
    if degenerate:
        verdict = "degenerate"
    elif gap >= margin:
        verdict = "spr-at-depth"
    else:
        verdict = "not-spr-at-depth"

    generators = WordSet.from_words(tower.oracle, tower.irreducibles, depth=n_max)
    gen_logs = ((n, thermo.log_partition_sum(generators, potential, n))
                for n in range(1, n_max + 1))
    generator_rate = max((v / n for n, v in gen_logs if v > NEG_INF), default=NEG_INF)
    return SprReport(t, z_rate, zs_rate, gap, margin, verdict, flags, generator_rate, z_rate)


# ---------------------------------------------------------------------------
# Marking sets
# ---------------------------------------------------------------------------

@dataclass
class MarkingReport:
    window: Word
    maximal_sets: list[tuple[int, ...]]
    injective_at_window: bool
    truncated: bool


def marking_analysis(x_window: Word, family: FreeFamily) -> MarkingReport:
    """All maximal marking sets spanning the window: sets of cut positions
    containing both ends, whose consecutive blocks lie in the family,
    maximal under inclusion among such sets.

    A spanning set is maximal iff none of its blocks refines into a chain of
    family words, so the maximal sets are exactly the end-to-end paths in
    the DAG of unrefinable blocks.  The verdict is injective-at-window iff
    exactly one maximal set exists (the finite echo of injectivity of the
    tower coding).  The search stops, flagged truncated, at 500 sets."""
    n = len(x_window)
    cuts = list(range(1, n + 2))

    in_f = family.contains

    # chain[i][j]: x[i-1 : j-1] splits into >= 1 family blocks
    chain = [[False] * (n + 2) for _ in range(n + 2)]
    for i in cuts:
        reach = [False] * (n + 2)
        reach[i] = True
        for j in range(i, n + 2):
            if not reach[j]:
                continue
            chain[i][j] = j > i
            for k in range(j + 1, n + 2):
                if not reach[k] and in_f(x_window[j - 1 : k - 1]):
                    reach[k] = True
        chain[i][i] = False

    def block_edge(i: int, j: int) -> bool:
        if not in_f(x_window[i - 1 : j - 1]):
            return False
        return not any(chain[i][m] and chain[m][j] for m in range(i + 1, j))

    maximal: list[tuple[int, ...]] = []
    truncated = False
    end = n + 1
    stack: list[tuple[int, tuple[int, ...]]] = [(1, (1,))]
    while stack:
        cur, path = stack.pop()
        if cur == end:
            maximal.append(path)
            if len(maximal) >= 500:
                truncated = True
                break
            continue
        for j in range(cur + 1, end + 1):
            if block_edge(cur, j):
                stack.append((j, path + (j,)))
    maximal.sort()

    return MarkingReport(x_window, maximal, len(maximal) == 1, truncated)


# ---------------------------------------------------------------------------
# Synchronising times
# ---------------------------------------------------------------------------

def obstruction_fraction_table(
    oracle: LanguageOracle,
    triple: SyncTriple,
    n_range: Sequence[int],
) -> list[tuple[int, int, int, float]]:
    """(n, #E_n, #L_n, fraction) for the words of the language with no
    synchronising time, the ends of r in occurrences of r.c.s: E_n is the
    words of length n that avoid r.c.s.  Both are counts, path counts on a
    finite layer; past the enumeration limit, DepthExceededError, as a
    listing of the words would raise."""
    avoiders = WordSet.avoiding(oracle, triple.pattern)
    rows = []
    for n in n_range:
        oracle.check_depth(n)
        bad, total = avoiders.count(n), oracle.count(n)
        rows.append((n, bad, total, bad / total if total else 0.0))
    return rows
