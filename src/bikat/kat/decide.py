"""Equivalence of KAT terms on guarded-string languages.

The decision procedure builds Brzozowski-style derivative automata over
(atom, action) symbols and checks bisimilarity with a union-find, exploring
pairs breadth-first so counterexamples are minimal in action count.
Hypotheses of the form b = 0 are folded in up front by the u;r;u sum
construction, which reduces equivalence under hypotheses to plain equivalence.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .guarded import atoms, eval_test
from .terms import (Alphabet, K0, K1, KAct, KatTerm, KPlus, KStar,
                    KTest, TestTerm, kact, kplus, kseq, kstar, ktest,
                    simplify, terms_alphabet, tnot)

DEFAULT_MAX_PAIRS = 50_000


@dataclass(frozen=True)
class ZeroHypothesis:
    """A named assumption that a term denotes the empty language."""

    name: str
    term: KatTerm


@dataclass(frozen=True)
class Verdict:
    kind: str  # "equal" | "not_equal" | "unknown"
    counterexample: tuple | None = None
    reason: str | None = None
    alphabet: Alphabet | None = field(default=None, compare=False)

    @property
    def is_equal(self) -> bool:
        return self.kind == "equal"

    def __bool__(self) -> bool:
        return self.is_equal


EQUAL = Verdict("equal")


def accepts(t: KatTerm, atom: int, alphabet: Alphabet) -> bool:
    """Whether the one-atom string (atom,) belongs to t's language."""
    if isinstance(t, KTest):
        return eval_test(t.test, atom, alphabet)
    if isinstance(t, KAct):
        return False
    if isinstance(t, KStar):
        return True
    if isinstance(t, KPlus):
        return any(accepts(a, atom, alphabet) for a in t.args)
    return all(accepts(a, atom, alphabet) for a in t.args)


def derivative(t: KatTerm, atom: int, act: str, alphabet: Alphabet) -> KatTerm:
    """Residual language after consuming `atom` then `act`; canonical form."""
    if isinstance(t, KTest):
        return K0
    if isinstance(t, KAct):
        return K1 if t.name == act else K0
    if isinstance(t, KPlus):
        return simplify(kplus(*[derivative(a, atom, act, alphabet) for a in t.args]))
    if isinstance(t, KStar):
        return simplify(kseq(derivative(t.arg, atom, act, alphabet), t))
    # sequence: derive the first factor; fall through it when it accepts atom
    out = []
    for i, a in enumerate(t.args):
        out.append(kseq(derivative(a, atom, act, alphabet), *t.args[i + 1:]))
        if not accepts(a, atom, alphabet):
            break
    return simplify(kplus(*out))


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        if p != x:
            p = self.find(p)
            self.parent[x] = p
        return p

    def union(self, x, y) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[rx] = ry
        return True


def eliminate_zero_hypotheses(
    s: KatTerm, t: KatTerm, hyps: list[ZeroHypothesis] | tuple[ZeroHypothesis, ...],
    alphabet: Alphabet | None = None,
) -> tuple[KatTerm, KatTerm]:
    """Reduce `s = t under {h = 0}` to plain equivalence of a padded pair.

    With r the sum of hypothesis terms and u = (sum of all actions)*, the pair
    (s + u;r;u, t + u;r;u) is equivalent iff s = t holds under the hypotheses.
    """
    if not hyps:
        return s, t
    if alphabet is None:
        alphabet = terms_alphabet([s, t] + [h.term for h in hyps])
    r = kplus(*[h.term for h in hyps])
    u = kstar(kplus(*[kact(a) for a in alphabet.actions]))
    pad = kseq(u, r, u)
    return kplus(s, pad), kplus(t, pad)


def kat_equiv(
    s: KatTerm,
    t: KatTerm,
    hyps: tuple[ZeroHypothesis, ...] | list[ZeroHypothesis] = (),
    alphabet: Alphabet | None = None,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> Verdict:
    """Decide guarded-string equality of s and t under zero-hypotheses.

    Equal verdicts are sound and complete for the declared alphabet.  A
    NotEqual verdict carries a shortest distinguishing guarded string.  If the
    explored state count exceeds `max_pairs` the verdict is Unknown(resource).
    """
    if alphabet is None:
        alphabet = terms_alphabet([s, t] + [h.term for h in hyps])
    s, t = eliminate_zero_hypotheses(s, t, list(hyps), alphabet)
    s, t = simplify(s), simplify(t)
    alph_atoms = atoms(alphabet)
    symbols = [(a, x) for a in alph_atoms for x in alphabet.actions]

    uf = _UnionFind()
    uf.union(s, t)
    queue: deque[tuple[KatTerm, KatTerm, tuple]] = deque([(s, t, ())])
    seen_pairs = 0
    dcache: dict[tuple, KatTerm] = {}

    def deriv(u: KatTerm, a: int, x: str) -> KatTerm:
        key = (u, a, x)
        got = dcache.get(key)
        if got is None:
            got = derivative(u, a, x, alphabet)
            dcache[key] = got
        return got

    while queue:
        u, v, path = queue.popleft()
        for a in alph_atoms:
            if accepts(u, a, alphabet) != accepts(v, a, alphabet):
                gs: list = []
                for (pa, px) in path:
                    gs.extend([pa, alphabet.actions.index(px)])
                gs.append(a)
                return Verdict("not_equal", counterexample=tuple(gs), alphabet=alphabet)
        for a, x in symbols:
            du, dv = deriv(u, a, x), deriv(v, a, x)
            if uf.union(du, dv):
                seen_pairs += 1
                if seen_pairs > max_pairs:
                    return Verdict(
                        "unknown",
                        reason=f"derivative pair count exceeded cap {max_pairs}",
                        alphabet=alphabet)
                queue.append((du, dv, path + ((a, x),)))
    return Verdict("equal", alphabet=alphabet)


def kat_leq(
    s: KatTerm,
    t: KatTerm,
    hyps: tuple[ZeroHypothesis, ...] | list[ZeroHypothesis] = (),
    alphabet: Alphabet | None = None,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> Verdict:
    """s <= t, i.e. s + t = t."""
    if alphabet is None:
        alphabet = terms_alphabet([s, t] + [h.term for h in hyps])
    return kat_equiv(kplus(s, t), t, hyps, alphabet, max_pairs)


def hoare_valid(
    p: TestTerm,
    c: KatTerm,
    q: TestTerm,
    hyps: tuple[ZeroHypothesis, ...] | list[ZeroHypothesis] = (),
    alphabet: Alphabet | None = None,
) -> Verdict:
    """Partial-correctness triple {p} c {q}, encoded as p;c;!q = 0."""
    lhs = kseq(ktest(p), c, ktest(tnot(q)))
    if alphabet is None:
        alphabet = terms_alphabet([lhs] + [h.term for h in hyps])
    return kat_equiv(lhs, K0, hyps, alphabet)


def gs_member(t: KatTerm, gs: tuple, alphabet: Alphabet) -> bool:
    """Membership of a guarded string in t's language, via derivatives."""
    cur = simplify(t)
    i = 0
    while i + 1 < len(gs):
        cur = derivative(cur, gs[i], alphabet.actions[gs[i + 1]], alphabet)
        i += 2
    return accepts(cur, gs[i], alphabet)
