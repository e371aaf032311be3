"""Replayable alignment derivations: one law application per step.

A step addresses its redex by an explicit tree path (child indices, root = ()).
Laws that rewrite a segment of a sequence chain take the start index as the
`at` parameter.  Terms are kept in canonical simplified form between steps, so
paths are deterministic; the checker reports the current term on a mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..kat.decide import ZeroHypothesis, kat_equiv
from ..kat.parse import ParseError
from ..kat.terms import (TESTS, KatTerm, KPlus, KSeq, KStar, bool_map, kplus,
                         kseq, kstar, ktest)
from .laws import LawInstance, expand_conditional, expand_lockstep
from .rewrite import bitest_side, distribute_embeddings, term_side
from .terms import (B0, B1, BEmbL, BEmbR, BiKatTerm, BiTestTerm, BPlus, BPrim,
                    BSeq, BStar, BTest, bembl, bembr, bisimplify, bplus, bseq,
                    bstar, seq_chain)
from ..models.kmodel import KatModel, kat_post, kat_pre
from ..models.space import SpaceError


def _strip_atom(a: BiTestTerm):
    if isinstance(a, BPrim):
        raise ScriptError(f"bitest {a} is not one-sided")
    return a.test


def _strip_bitest(t: BiTestTerm):
    """Recover the underlying test from a purely one-sided bitest."""
    return bool_map(t, _strip_atom, TESTS)


class ScriptError(Exception):
    pass


@dataclass(frozen=True)
class Step:
    law: str
    path: tuple[int, ...]
    params: dict = field(default_factory=dict)
    raw: str = ""


@dataclass(frozen=True)
class AlignmentScript:
    start: BiKatTerm
    steps: tuple[Step, ...]
    goal: BiKatTerm


@dataclass
class ScriptContext:
    """Name resolution for steps: zero-hypotheses and a KAT term parser.

    With a `model`, each zero-hypothesis is checked on it when a step first
    uses it: the term's image of the whole state space must be empty.
    Without one, a step that uses a hypothesis records it as a proviso."""

    hypotheses: dict[str, ZeroHypothesis] = field(default_factory=dict)
    parse_kat: Callable[[str], KatTerm] | None = None
    parse_bitest: Callable[[str], object] | None = None
    parse_test: Callable[[str], object] | None = None
    model: KatModel | None = None
    _checked: set[str] = field(default_factory=set, init=False, repr=False)

    def hypothesis(self, name: str) -> ZeroHypothesis:
        """The named hypothesis, checked on the model on first use."""
        h = self.hypotheses.get(name)
        if h is None:
            raise ScriptError(f"hyp: unknown hypothesis {name!r}")
        m = self.model
        if m is not None and name not in self._checked:
            ends = kat_post(m, h.term, range(m.space.size))
            if ends:
                end = min(ends)
                start = min(kat_pre(m, h.term, (end,)))
                raise ScriptError(
                    f"hyp: hypothesis {name!r} is not zero in the model: a run "
                    f"from {m.space.state_str(start)} reaches "
                    f"{m.space.state_str(end)}")
            self._checked.add(name)
        return h


@dataclass(frozen=True)
class StepTrace:
    step: Step
    before: BiKatTerm
    after: BiKatTerm
    instance: LawInstance | None


@dataclass
class ScriptResult:
    accepted: bool
    final: BiKatTerm
    trace: list[StepTrace]
    error: str | None = None
    failed_step: int | None = None
    provisos: list[str] = field(default_factory=list)


def child_at(t: BiKatTerm, i: int) -> BiKatTerm:
    if isinstance(t, (BSeq, BPlus)) and 0 <= i < len(t.args):
        return t.args[i]
    if isinstance(t, BStar) and i == 0:
        return t.arg
    raise ScriptError(f"no child {i} under {t}")


def subterm_at(t: BiKatTerm, path: tuple[int, ...]) -> BiKatTerm:
    for i in path:
        t = child_at(t, i)
    return t


def replace_at(t: BiKatTerm, path: tuple[int, ...], new: BiKatTerm) -> BiKatTerm:
    if not path:
        return new
    i, rest = path[0], path[1:]
    if isinstance(t, (BSeq, BPlus)) and 0 <= i < len(t.args):
        args = list(t.args)
        args[i] = replace_at(args[i], rest, new)
        return (bseq if isinstance(t, BSeq) else bplus)(*args)
    if isinstance(t, BStar) and i == 0:
        return bstar(replace_at(t.arg, rest, new))
    raise ScriptError(f"path component {i} does not address a child of {t}")


def _param(step: Step, key: str) -> str:
    try:
        return step.params[key]
    except KeyError:
        raise ScriptError(f"missing parameter {key!r}") from None


def _int_param(step: Step, key: str, default: int) -> int:
    raw = step.params.get(key, default)
    try:
        return int(raw)
    except ValueError:
        raise ScriptError(f"parameter {key!r} is not an integer: {raw!r}") from None


def _chain_and_at(t: BiKatTerm, step: Step) -> tuple[tuple[BiKatTerm, ...], int]:
    chain = seq_chain(t)
    at = _int_param(step, "at", 0)
    if not 0 <= at < len(chain):
        raise ScriptError(f"segment index {at} out of range for chain of {len(chain)}")
    return chain, at


def _replace_segment(
    t: BiKatTerm, chain: tuple[BiKatTerm, ...], at: int, count: int,
    replacement: tuple[BiKatTerm, ...],
) -> BiKatTerm:
    return bseq(*(chain[:at] + replacement + chain[at + count:]))


def _match_segment(
    chain: tuple[BiKatTerm, ...], at: int, expected: tuple[BiKatTerm, ...], what: str
) -> None:
    got = chain[at:at + len(expected)]
    if tuple(bisimplify(g) for g in got) != tuple(bisimplify(e) for e in expected):
        raise ScriptError(
            f"{what}: expected segment\n    " +
            " ; ".join(str(e) for e in expected) +
            f"\n  at index {at}, found\n    " + " ; ".join(str(g) for g in got))


def _emb_side(t: BiKatTerm) -> str | None:
    return t.side if isinstance(t, (BEmbL, BEmbR)) else None


def _factor_side(t: BiKatTerm) -> str | None:
    """Side of an embedded action or one-sided bitest factor."""
    if isinstance(t, BTest):
        s = bitest_side(t.test)
        return s if s in ("L", "R") else None
    return _emb_side(t)


def _factor_kat(t: BiKatTerm) -> KatTerm:
    """The underlying term of an embedded factor (action or bitest)."""
    if isinstance(t, (BEmbL, BEmbR)):
        return t.arg
    return ktest(_strip_bitest(t.test))


def apply_step(t: BiKatTerm, step: Step, ctx: ScriptContext) -> tuple[BiKatTerm, LawInstance | None]:
    node = subterm_at(t, step.path)
    law = step.law
    instance: LawInstance | None = None

    if law == "lrc":
        chain, at = _chain_and_at(node, step)
        if at + 1 >= len(chain):
            raise ScriptError("lrc needs two adjacent factors")
        a, b = chain[at], chain[at + 1]
        rev = step.params.get("dir") == "rev"
        want = ("L", "R") if rev else ("R", "L")
        if (term_side(a), term_side(b)) != want:
            raise ScriptError(
                f"lrc{' rev' if rev else ''}: factors at {at} are "
                f"{term_side(a)}/{term_side(b)}-sided, expected {want[0]}/{want[1]}: {a} ; {b}")
        new = _replace_segment(node, chain, at, 2, (b, a))
        instance = LawInstance("lrc", bseq(a, b), bseq(b, a))

    elif law in ("hom-seq", "hom-plus", "hom-star"):
        rev = step.params.get("dir") == "rev"
        if not rev:
            side = _emb_side(node)
            if side is None:
                raise ScriptError(f"{law}: path must address an embedding, found {node}")
            emb = bembl if side == "L" else bembr
            k = node.arg
            if law == "hom-seq":
                if not isinstance(k, KSeq):
                    raise ScriptError(f"hom-seq: embedded term is not a sequence: {k}")
                new_node = bseq(*[emb(a) for a in k.args])
            elif law == "hom-plus":
                if not isinstance(k, KPlus):
                    raise ScriptError(f"hom-plus: embedded term is not a sum: {k}")
                new_node = bplus(*[emb(a) for a in k.args])
            else:
                if not isinstance(k, KStar):
                    raise ScriptError(f"hom-star: embedded term is not a star: {k}")
                new_node = bstar(emb(k.arg))
            instance = LawInstance(law, node, new_node)
            new = new_node
        else:
            if law == "hom-star":
                if not (isinstance(node, BStar) and _emb_side(node.arg)):
                    raise ScriptError(f"hom-star rev: expected a star of an embedding, found {node}")
                side = _emb_side(node.arg)
                emb = bembl if side == "L" else bembr
                new = emb(kstar(node.arg.arg))
                instance = LawInstance(law, node, new)
            elif law == "hom-plus":
                if not isinstance(node, BPlus):
                    raise ScriptError("hom-plus rev: path must address a sum")
                sides = {_emb_side(a) for a in node.args}
                if len(sides) != 1 or None in sides:
                    raise ScriptError("hom-plus rev: summands must all embed from one side")
                side = sides.pop()
                emb = bembl if side == "L" else bembr
                new = emb(kplus(*[a.arg for a in node.args]))
                instance = LawInstance(law, node, new)
            else:  # hom-seq rev folds a run of same-side factors
                chain, at = _chain_and_at(node, step)
                n = _int_param(step, "count", 2)
                seg = chain[at:at + n]
                if len(seg) < 2:
                    raise ScriptError("hom-seq rev: segment must have at least two factors")
                sides = {_factor_side(a) for a in seg}
                if len(sides) != 1 or None in sides:
                    raise ScriptError(
                        "hom-seq rev: segment factors must all embed from one side, found " +
                        " ; ".join(str(a) for a in seg))
                side = sides.pop()
                emb = bembl if side == "L" else bembr
                folded = emb(kseq(*[_factor_kat(a) for a in seg]))
                instance = LawInstance(law, bseq(*seg), folded)
                new = _replace_segment(node, chain, at, n, (folded,))

    elif law == "hom-test":
        # one-sided tests are kept in bitest form, so both directions of this
        # law are represented by the same canonical term
        if _factor_side(node) is None:
            raise ScriptError(f"hom-test: path must address a one-sided test, found {node}")
        new = bisimplify(node)
        instance = None

    elif law in ("distrib-left", "distrib-right"):
        chain, at = _chain_and_at(node, step)
        rev = step.params.get("dir") == "rev"
        if not rev:
            target = chain[at]
            if not isinstance(target, BPlus):
                raise ScriptError(f"{law}: factor at {at} is not a sum: {target}")
            if law == "distrib-left":
                prefix, kept = chain[:at], chain[at + 1:]
                arms = tuple(bseq(*prefix, arm) for arm in target.args)
                new = bseq(bplus(*arms), *kept)
                instance = LawInstance(law, bseq(*prefix, target), bplus(*arms))
            else:
                kept, suffix = chain[:at], chain[at + 1:]
                arms = tuple(bseq(arm, *suffix) for arm in target.args)
                new = bseq(*kept, bplus(*arms))
                instance = LawInstance(law, bseq(target, *suffix), bplus(*arms))
        else:
            # factor a common prefix (left) or suffix (right) out of a sum
            target = chain[at]
            if not isinstance(target, BPlus):
                raise ScriptError(f"{law} rev: factor at {at} is not a sum: {target}")
            n = _int_param(step, "count", 1)
            arms = [seq_chain(a) for a in target.args]
            if law == "distrib-left":
                common = arms[0][:n]
                if any(a[:n] != common for a in arms):
                    raise ScriptError(f"{law} rev: summands do not share a {n}-factor prefix")
                rest = bplus(*[bseq(*a[n:]) for a in arms])
                folded = bseq(*common, rest)
            else:
                common = arms[0][len(arms[0]) - n:]
                if any(a[len(a) - n:] != common for a in arms):
                    raise ScriptError(f"{law} rev: summands do not share a {n}-factor suffix")
                rest = bplus(*[bseq(*a[:len(a) - n]) for a in arms])
                folded = bseq(rest, *common)
            instance = LawInstance(law, target, folded)
            new = _replace_segment(node, chain, at, 1, (folded,))

    elif law == "unfold-star":
        rev = step.params.get("dir") == "rev"
        if not rev:
            if not isinstance(node, BStar):
                raise ScriptError(f"unfold-star: path must address a star, found {node}")
            new = bplus(B1, bseq(node.arg, node))
            instance = LawInstance(law, node, new)
        else:
            if not isinstance(node, BPlus) or len(node.args) != 2:
                raise ScriptError("unfold-star rev: expected a two-summand sum")
            one, rest = (node.args if node.args[0].const == 1 else (node.args[1], node.args[0]))
            if one.const != 1:
                raise ScriptError("unfold-star rev: no unit summand")
            ch = seq_chain(rest)
            if not (isinstance(ch[-1], BStar) and
                    bisimplify(bseq(*ch[:-1])) == bisimplify(ch[-1].arg)):
                raise ScriptError("unfold-star rev: sum is not of shape 1 + x;x*")
            new = ch[-1]
            instance = LawInstance(law, node, new)

    elif law == "slide":
        chain, at = _chain_and_at(node, step)
        rev = step.params.get("dir") == "rev"
        if not rev:
            # a ; (b;a)*  ->  (a;b)* ; a
            if at + 1 >= len(chain) or not isinstance(chain[at + 1], BStar):
                raise ScriptError("slide: expected factor followed by a star")
            a = chain[at]
            body = seq_chain(chain[at + 1].arg)
            if bisimplify(body[-1]) != bisimplify(a):
                raise ScriptError("slide: star body does not end with the leading factor")
            new_star = bstar(bseq(a, *body[:-1]))
            instance = LawInstance(law, bseq(a, chain[at + 1]), bseq(new_star, a))
            new = _replace_segment(node, chain, at, 2, (new_star, a))
        else:
            # (a;b)* ; a  ->  a ; (b;a)*
            if at + 1 >= len(chain) or not isinstance(chain[at], BStar):
                raise ScriptError("slide rev: expected a star followed by a factor")
            a = chain[at + 1]
            body = seq_chain(chain[at].arg)
            if bisimplify(body[0]) != bisimplify(a):
                raise ScriptError("slide rev: star body does not begin with the trailing factor")
            new_star = bstar(bseq(*body[1:], a))
            instance = LawInstance(law, bseq(chain[at], a), bseq(a, new_star))
            new = _replace_segment(node, chain, at, 2, (a, new_star))

    elif law == "assoc":
        new = bisimplify(node)
        instance = None

    elif law == "comm-plus":
        if not isinstance(node, BPlus):
            raise ScriptError("comm-plus: path must address a sum")
        new = bisimplify(node)
        instance = None

    elif law in ("expand-lockstep", "expand-cond"):
        if ctx.parse_test is None or ctx.parse_kat is None:
            raise ScriptError(f"{law}: no term parser available in this context")
        e = ctx.parse_test(_param(step, "e"))
        c = ctx.parse_kat(_param(step, "c"))
        e2 = ctx.parse_test(_param(step, "e2"))
        c2 = ctx.parse_kat(_param(step, "c2"))
        if law == "expand-lockstep":
            instance = expand_lockstep(e, c, e2, c2)
        else:
            if ctx.parse_bitest is None:
                raise ScriptError("expand-cond: no bitest parser available")
            q = ctx.parse_bitest(_param(step, "q"))
            r = ctx.parse_bitest(_param(step, "r"))
            instance = expand_conditional(e, c, e2, c2, q, r)
        chain, at = _chain_and_at(node, step)
        lhs_chain = seq_chain(bisimplify(instance.lhs))
        _match_segment(chain, at, lhs_chain, law)
        new = _replace_segment(node, chain, at, len(lhs_chain),
                               seq_chain(bisimplify(instance.rhs)))

    elif law == "hyp":
        name = step.params.get("name")
        hterm = ctx.hypothesis(name).term
        side = step.params.get("side", "L")
        emb = bembl if side == "L" else bembr
        expected = seq_chain(bisimplify(distribute_embeddings(emb(hterm))))
        chain, at = _chain_and_at(node, step)
        _match_segment(chain, at, expected, f"hyp {name}")
        new = _replace_segment(node, chain, at, len(expected), (B0,))
        instance = LawInstance(f"hyp({name})", bseq(*expected), B0)

    elif law == "kat-subterm":
        side = _emb_side(node)
        if side is None:
            raise ScriptError(f"kat-subterm: path must address an embedding, found {node}")
        if ctx.parse_kat is None:
            raise ScriptError("kat-subterm: no term parser available in this context")
        to = ctx.parse_kat(_param(step, "to"))
        verdict = kat_equiv(node.arg, to)
        if not verdict.is_equal:
            raise ScriptError(
                f"kat-subterm: {node.arg} and {to} are not provably equal "
                f"({verdict.kind})")
        new = (bembl if side == "L" else bembr)(to)
        instance = LawInstance("kat-subterm", node, new)

    else:
        raise ScriptError(f"unknown law {law!r}")

    return bisimplify(replace_at(t, step.path, new)), instance


def check_script(script: AlignmentScript, ctx: ScriptContext) -> ScriptResult:
    """Replay every step; accepted iff all redexes match and the final term
    equals the goal modulo simplification."""
    cur = bisimplify(script.start)
    trace: list[StepTrace] = []
    provisos: list[str] = []
    for i, step in enumerate(script.steps):
        before = cur
        try:
            cur, instance = apply_step(cur, step, ctx)
        except (ScriptError, ParseError, SpaceError) as e:  # a bad step or term
            return ScriptResult(
                False, before, trace,
                error=f"step {i + 1} ({step.law} @ {'.'.join(map(str, step.path)) or 'root'}): {e}\n"
                      f"  current term: {before}",
                failed_step=i)
        if instance is not None and instance.star_continuous_only:
            provisos.append(
                f"step {i + 1} uses {instance.name}, valid in *-continuous models only")
        if step.law == "hyp" and ctx.model is None:
            provisos.append(
                f"step {i + 1} trusts hypothesis {step.params.get('name')!r} unchecked")
        trace.append(StepTrace(step, before, cur, instance))
    goal = bisimplify(script.goal)
    if cur != goal:
        return ScriptResult(
            False, cur, trace,
            error=f"final term differs from goal:\n  final: {cur}\n  goal:  {goal}",
            failed_step=None, provisos=provisos)
    return ScriptResult(True, cur, trace, provisos=provisos)
