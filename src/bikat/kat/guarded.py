"""Guarded strings: the canonical observations of KAT terms.

An atom is a complete boolean valuation of the primitive tests, encoded as a
bitmask over `Alphabet.tests`.  A guarded string alternates atoms and actions,
beginning and ending with an atom; actions are encoded by their index in
`Alphabet.actions`.  Strings are plain tuples `(a0, x1, a1, ..., xk, ak)`.
"""

from __future__ import annotations

from operator import not_
from typing import Iterable

from .terms import (Alphabet, BoolOps, CapExceeded, KAct, KatTerm, KPlus, KSeq, KTest,
                    TestTerm, bool_map)

GS_LEN_CAP = 8


def atoms(alphabet: Alphabet) -> list[int]:
    """All 2^n test valuations, in increasing bitmask order (`Alphabet`
    refuses more than TEST_CAP tests)."""
    return list(range(1 << len(alphabet.tests)))


_TRUTH = BoolOps(False, True, not_, lambda *vs: any(vs), lambda *vs: all(vs))


def eval_test(t: TestTerm, atom: int, alphabet: Alphabet) -> bool:
    """Whether `t` holds at `atom`."""
    return bool_map(t, lambda p: bool(atom >> alphabet.tests.index(p.name) & 1), _TRUTH)


def enumerate_guarded_strings(
    t: KatTerm, max_len: int, alphabet: Alphabet
) -> set[tuple]:
    """Exactly the guarded strings of `t` with at most `max_len` actions.

    Computed by direct language unfolding; independent of the derivative
    construction, so it serves as an oracle for the decision procedure.
    Catenation is a join stratified by length: the right language is indexed
    by first atom and action count, and each left string meets only the
    strings that start with its last atom and fit the bound.  A star adds
    the strings of its body with at least one action to a frontier until no
    new string fits, so it takes at most `max_len` rounds.
    """
    if max_len > GS_LEN_CAP:
        raise CapExceeded(f"guarded-string length {max_len} exceeds cap {GS_LEN_CAP}")
    alph_atoms = atoms(alphabet)

    def join(xs: Iterable[tuple], ys: Iterable[tuple]) -> set[tuple]:
        index: dict[tuple[int, int], list[tuple]] = {}
        for y in ys:
            index.setdefault((y[0], len(y) // 2), []).append(y[1:])
        out: set[tuple] = set()
        for x in xs:
            last, room = x[-1], max_len - len(x) // 2
            for k in range(room + 1):
                for rest in index.get((last, k), ()):
                    out.add(x + rest)
        return out

    def go(u: KatTerm) -> set[tuple]:
        if isinstance(u, KTest):
            return {(a,) for a in alph_atoms if eval_test(u.test, a, alphabet)}
        if isinstance(u, KAct):
            if max_len < 1:
                return set()
            i = alphabet.actions.index(u.name)
            return {(a, i, b) for a in alph_atoms for b in alph_atoms}
        if isinstance(u, KPlus):
            out: set[tuple] = set()
            for a in u.args:
                out |= go(a)
            return out
        if isinstance(u, KSeq):
            acc = go(u.args[0])
            for a in u.args[1:]:
                if not acc:
                    break
                acc = join(acc, go(a))
            return acc
        steps = [y for y in go(u.arg) if len(y) > 1]
        acc = {(a,) for a in alph_atoms}
        frontier = acc
        while frontier:
            frontier = join(frontier, steps) - acc
            acc |= frontier
        return acc

    return go(t)


def gs_diff(
    s_lang: Iterable[tuple], t_lang: Iterable[tuple]
) -> tuple | None:
    """Shortest string in exactly one of the two languages, or None."""
    s_set, t_set = set(s_lang), set(t_lang)
    sym = s_set ^ t_set
    if not sym:
        return None
    return min(sym, key=lambda g: (len(g), g))
