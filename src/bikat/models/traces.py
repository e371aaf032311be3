"""Bounded trace semantics: sequences of states joined by primitive actions.

A trace is a tuple (s0, a1, s1, ..., ak, sk) that is consecutive with respect
to the primitive action relations.  Sequencing is coalesced catenation (the
shared state is written once); star iterates catenation up to the bound.
Unlike the relational semantics, this model is an under-approximation: only
behaviours with at most L actions are represented, and the bound is recorded.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..kat.terms import CapExceeded, KAct, KatTerm, KPlus, KSeq, KTest
from .kmodel import KatModel, test_holds

TRACE_LEN_CAP = 8


@dataclass(frozen=True)
class BoundedTraceSet:
    bound: int
    traces: frozenset[tuple]

    def endpoints(self) -> frozenset[tuple[int, int]]:
        return frozenset((t[0], t[-1]) for t in self.traces)

    def count(self) -> int:
        return len(self.traces)


def _trace_actions(t: tuple) -> int:
    return len(t) // 2


def _coalesce(x: tuple, y: tuple, bound: int) -> tuple | None:
    if x[-1] != y[0]:
        return None
    j = x + y[1:]
    return j if _trace_actions(j) <= bound else None


def interp_trace_bounded(m: KatModel, t: KatTerm, bound: int) -> BoundedTraceSet:
    """All traces of the term with at most `bound` actions."""
    if bound > TRACE_LEN_CAP:
        raise CapExceeded(f"trace bound {bound} exceeds cap {TRACE_LEN_CAP}")
    n = m.space.size

    def go(u: KatTerm) -> frozenset[tuple]:
        if isinstance(u, KTest):
            return frozenset((s,) for s in range(n) if test_holds(m, u.test, s))
        if isinstance(u, KAct):
            if bound < 1:
                return frozenset()
            sem = m.act(u.name)
            return frozenset((s, u.name, s2) for s in range(n) for s2 in sem.succ(s))
        if isinstance(u, KPlus):
            out: set[tuple] = set()
            for a in u.args:
                out |= go(a)
            return frozenset(out)
        if isinstance(u, KSeq):
            acc = frozenset((s,) for s in range(n))
            for a in u.args:
                lang = go(a)
                nxt = set()
                for x in acc:
                    for y in lang:
                        j = _coalesce(x, y, bound)
                        if j is not None:
                            nxt.add(j)
                acc = frozenset(nxt)
                if not acc:
                    break
            return acc
        base = go(u.arg)
        acc: set[tuple] = set((s,) for s in range(n))
        frontier = set(acc)
        while frontier:
            new = set()
            for x in frontier:
                for y in base:
                    j = _coalesce(x, y, bound)
                    if j is not None and j not in acc:
                        new.add(j)
            acc |= new
            frontier = new
        return frozenset(acc)

    return BoundedTraceSet(bound, go(t))


def interp_kat_bounded(m: KatModel, t: KatTerm, bound: int) -> frozenset[tuple[int, int]]:
    """Endpoint pairs of executions with at most `bound` actions, computed
    directly on relations; independent oracle for the trace model."""
    n = m.space.size

    def _counted(u: KatTerm, budget: int) -> set[tuple[int, int, int]]:
        if budget < 0:
            return set()
        out: set[tuple[int, int, int]] = set()
        if isinstance(u, KTest):
            return {(s, s, 0) for s in range(n) if test_holds(m, u.test, s)}
        if isinstance(u, KAct):
            if budget < 1:
                return set()
            sem = m.act(u.name)
            return {(s, s2, 1) for s in range(n) for s2 in sem.succ(s)}
        if isinstance(u, KPlus):
            for a in u.args:
                out |= _counted(a, budget)
            return out
        if isinstance(u, KSeq):
            acc = {(s, s, 0) for s in range(n)}
            for a in u.args:
                sub = _counted(a, budget)
                nxt = set()
                for (s, mid, used) in acc:
                    for (m1, t1, used1) in sub:
                        if m1 == mid and used + used1 <= budget:
                            nxt.add((s, t1, used + used1))
                acc = nxt
            return acc
        base = _counted(u.arg, budget)
        acc = {(s, s, 0) for s in range(n)}
        frontier = set(acc)
        while frontier:
            new = set()
            for (s, mid, used) in frontier:
                for (m1, t1, used1) in base:
                    if m1 == mid and used + used1 <= budget:
                        item = (s, t1, used + used1)
                        if item not in acc:
                            new.add(item)
            acc |= new
            frontier = new
        return acc

    return frozenset((s, t2) for (s, t2, _) in _counted(t, bound))
