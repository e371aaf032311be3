"""Replayable alignment derivations: one law application per step.

A step addresses a node by an explicit tree path (child indices, root = ()).
Every law rewrites a segment of the node's sequence chain (any other node is
a chain of one): the segment at index `at` for the laws that read it, else
the whole chain.  Terms are re-simplified after each step, so paths are
deterministic; the checker reports the current term on a mismatch.

The laws (the keys of `LAWS`), the parameters a step may give, and those of
the reverse direction, `rev` (that is, `dir: rev`):

  lrc              (at)                      rev (at)
  hom-seq          ()                        rev (at, count)
  hom-plus         ()                        rev ()
  hom-star         ()                        rev ()
  hom-test         ()
  distrib-left     (at)                      rev (at, count)
  distrib-right    (at)                      rev (at, count)
  unfold-star      ()                        rev ()
  slide            (at)                      rev (at)
  assoc            ()
  comm-plus        ()
  expand-lockstep  (at, e, c, e2, c2)
  expand-cond      (at, e, c, e2, c2, q, r)
  hyp              (at, name, side)
  kat-subterm      (to)

hom-test, assoc and comm-plus, which canonical form already applies, record
no instance.  expand-cond holds in *-continuous models only: a proviso.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, NamedTuple

from ..kat.decide import ZeroHypothesis, kat_equiv
from ..kat.parse import ParseError
from ..kat.terms import CapExceeded, KatTerm, Plus, Seq, Star, children, kplus, kseq, kstar
from .laws import LawInstance, expand_conditional, expand_lockstep
from .rewrite import distribute_embeddings
from .terms import (B0, B1, BEmbL, BEmbR, BiKatTerm, BPlus, BSeq, BStar, BTest,
                    bisimplify, bplus, bseq, bstar, emb, seq_chain, side_test,
                    term_side, unembed)
from ..models.kmodel import KatModel, kat_post, kat_pre
from ..models.space import SpaceError


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
    i = path[0]
    child = replace_at(child_at(t, i), path[1:], new)
    if isinstance(t, BStar):
        return bstar(child)
    return (bseq if isinstance(t, BSeq) else bplus)(*t.args[:i], child, *t.args[i + 1:])


class Law(NamedTuple):
    """A law's function and the parameters a step may give, forward and
    `rev` (None: the law has no reverse)."""

    apply: Callable  # Redex -> Rewrite
    params: tuple[str, ...] = ()
    rev: tuple[str, ...] | None = None


class Rewrite(NamedTuple):
    """The segment of `count` factors at `start` that a law rewrites, its
    replacement, and the instance's name and proviso when not the law's own."""

    start: int
    count: int
    factors: tuple[BiKatTerm, ...]
    name: str | None = None
    star_continuous_only: bool = False


@dataclass
class Redex:
    """What a law reads: a step's law, direction and parameters, and the
    sequence chain of the node the step addresses."""

    law: str
    rev: bool
    params: dict
    chain: tuple[BiKatTerm, ...]
    ctx: ScriptContext

    @property
    def name(self) -> str:  # as error messages name the law
        return f"{self.law} rev" if self.rev else self.law

    @property
    def node(self) -> BiKatTerm:
        return bseq(*self.chain)

    @cached_property
    def at(self) -> int:  # checked when a law reads it: after the terms it parses
        at = self.int_param("at", 0)
        if not 0 <= at < len(self.chain):
            raise ScriptError(f"segment index {at} out of range for chain of {len(self.chain)}")
        return at

    def param(self, key: str) -> str:
        try:
            return self.params[key]
        except KeyError:
            raise ScriptError(f"missing parameter {key!r}") from None

    def int_param(self, key: str, default: int) -> int:
        raw = self.params.get(key, default)
        try:
            return int(raw)
        except ValueError:
            raise ScriptError(f"parameter {key!r} is not an integer: {raw!r}") from None


def _lrc(r: Redex) -> Rewrite:
    """R ; L  ->  L ; R, and back with rev."""
    pair = r.chain[r.at:r.at + 2]
    if len(pair) < 2:
        raise ScriptError("lrc needs two adjacent factors")
    a, b = pair
    want = ("L", "R") if r.rev else ("R", "L")
    if (term_side(a), term_side(b)) != want:
        raise ScriptError(
            f"{r.name}: factors at {r.at} are {term_side(a)}/{term_side(b)}-sided, "
            f"expected {want[0]}/{want[1]}: {a} ; {b}")
    return Rewrite(r.at, 2, (b, a))


def _hom(op: type, kat_op: Callable, bi_op: Callable, noun: str, r: Redex) -> Rewrite:
    """<k op k'] -> <k] op <k'] for the operator `op` (a marker base of both
    term languages), and back with rev from factors that embed from one
    side.  hom-seq rev folds the `count` factors at `at`."""
    if not r.rev:
        node = r.node
        if not isinstance(node, (BEmbL, BEmbR)) or not isinstance(node.arg, op):
            raise ScriptError(f"{r.law}: expected an embedding of {noun}, found {node}")
        return Rewrite(0, 1, (bi_op(*map(partial(emb, node.side), children(node.arg))),))
    start, count = (r.at, r.int_param("count", 2)) if op is Seq else (0, len(r.chain))
    if count < 2 and op is Seq:
        raise ScriptError(f"{r.name}: count must be at least 2, found {count}")
    found = bseq(*r.chain[start:start + count])
    parts = list(map(unembed, children(found))) if isinstance(found, op) else [None]
    if start + count > len(r.chain) or None in parts or len({s for s, _ in parts}) != 1:
        raise ScriptError(f"{r.name}: expected {noun} whose operands all embed "
                          f"from one side, found {found}")
    return Rewrite(start, count, (emb(parts[0][0], kat_op(*(k for _, k in parts))),))


def _canonical(what: str, applies: Callable, r: Redex) -> Rewrite:
    """A law that canonical form already applies at a node of kind `what`:
    it splices nothing."""
    if not applies(r.node):
        raise ScriptError(f"{r.law}: path must address {what}, found {r.node}")
    return Rewrite(0, 0, ())


def _distrib(left: bool, r: Redex) -> Rewrite:
    """x ; (y + z)  ->  x;y + x;z for the sum at `at`, and distrib-right its
    mirror image; with rev, a `count`-factor prefix (suffix) is factored out."""
    target = r.chain[r.at]
    if not isinstance(target, BPlus):
        raise ScriptError(f"{r.name}: factor at {r.at} is not a sum: {target}")
    if not r.rev:
        if left:
            return Rewrite(0, r.at + 1, (bplus(*[bseq(*r.chain[:r.at], a) for a in target.args]),))
        return Rewrite(r.at, len(r.chain) - r.at, (
            bplus(*[bseq(a, *r.chain[r.at + 1:]) for a in target.args]),))
    n = r.int_param("count", 1)
    # each summand's chain as (the part factored out, the rest)
    splits = [(a[:n], a[n:]) if left else (a[len(a) - n:], a[:len(a) - n])
              for a in map(seq_chain, target.args)]
    if n < 1 or len({common for common, _ in splits}) != 1 or len(splits[0][0]) != n:
        raise ScriptError(f"{r.name}: summands do not share a {n}-factor "
                          f"{'prefix' if left else 'suffix'}")
    common, rest = splits[0][0], bplus(*[bseq(*tail) for _, tail in splits])
    return Rewrite(r.at, 1, (bseq(*common, rest) if left else bseq(rest, *common),))


def _unfold_star(r: Redex) -> Rewrite:
    """x*  ->  1 + x;x*, and back with rev."""
    node = r.node
    if not r.rev:
        if not isinstance(node, BStar):
            raise ScriptError(f"unfold-star: expected a star, found {node}")
        return Rewrite(0, 1, (bplus(B1, bseq(node.arg, node)),))
    if isinstance(node, BPlus) and len(node.args) == 2 and B1 in node.args:
        *x, star = seq_chain(node.args[1] if node.args[0] == B1 else node.args[0])
        if isinstance(star, BStar) and bisimplify(bseq(*x)) == bisimplify(star.arg):
            return Rewrite(0, 1, (star,))
    raise ScriptError(f"unfold-star rev: expected a sum 1 + x;x*, found {node}")


def _slide(r: Redex) -> Rewrite:
    """a ; (b;a)*  ->  (a;b)* ; a, and back with rev."""
    pair = r.chain[r.at:r.at + 2]
    if not r.rev:
        if len(pair) < 2 or not isinstance(pair[1], BStar):
            raise ScriptError("slide: expected factor followed by a star")
        a, body = pair[0], seq_chain(pair[1].arg)
        if bisimplify(body[-1]) != bisimplify(a):
            raise ScriptError("slide: star body does not end with the leading factor")
        return Rewrite(r.at, 2, (bstar(bseq(a, *body[:-1])), a))
    if len(pair) < 2 or not isinstance(pair[0], BStar):
        raise ScriptError("slide rev: expected a star followed by a factor")
    body, a = seq_chain(pair[0].arg), pair[1]
    if bisimplify(body[0]) != bisimplify(a):
        raise ScriptError("slide rev: star body does not begin with the trailing factor")
    return Rewrite(r.at, 2, (a, bstar(bseq(*body[1:], a))))


def _match(r: Redex, what: str, law: LawInstance) -> Rewrite:
    """Rewrite the segment at `at` that matches `law.lhs` factor by factor to
    `law.rhs`, under the instance's name and proviso."""
    want = seq_chain(bisimplify(law.lhs))
    got = r.chain[r.at:r.at + len(want)]
    if tuple(map(bisimplify, got)) != tuple(map(bisimplify, want)):
        raise ScriptError(
            f"{what}: expected segment\n    " + " ; ".join(map(str, want)) +
            f"\n  at index {r.at}, found\n    " + " ; ".join(map(str, got)))
    return Rewrite(r.at, len(want), seq_chain(bisimplify(law.rhs)), law.name,
                   law.star_continuous_only)


def _expand(build: Callable, bitests: tuple[str, ...], r: Redex) -> Rewrite:
    """A loop expansion law of `laws`, built from the step's loops and bitests."""
    test, kat, bitest = r.ctx.parse_test, r.ctx.parse_kat, r.ctx.parse_bitest
    if test is None or kat is None:
        raise ScriptError(f"{r.law}: no term parser available in this context")
    loops = test(r.param("e")), kat(r.param("c")), test(r.param("e2")), kat(r.param("c2"))
    if bitests and bitest is None:
        raise ScriptError(f"{r.law}: no bitest parser available")
    return _match(r, r.law, build(*loops, *(bitest(r.param(k)) for k in bitests)))


def _hyp(r: Redex) -> Rewrite:
    """A zero-hypothesis, embedded on `side`, rewrites to 0."""
    name, side = r.param("name"), r.params.get("side", "L")
    if side not in ("L", "R"):
        raise ScriptError(f"hyp: side must be L or R, found {side!r}")
    hterm = r.ctx.hypothesis(name).term
    return _match(r, f"hyp {name}",
                  LawInstance(f"hyp({name})", distribute_embeddings(emb(side, hterm)), B0))


def _kat_subterm(r: Redex) -> Rewrite:
    """<k]  ->  <k'] for KAT terms that `kat_equiv` proves equal."""
    node = r.node
    if not isinstance(node, (BEmbL, BEmbR)):
        raise ScriptError(f"kat-subterm: path must address an embedding, found {node}")
    if r.ctx.parse_kat is None:
        raise ScriptError("kat-subterm: no term parser available in this context")
    to = r.ctx.parse_kat(r.param("to"))
    try:
        verdict = kat_equiv(node.arg, to)
        reason = None if verdict.is_equal else verdict.kind
    except CapExceeded as e:  # a term over a cap is not proved equal either
        reason = str(e)
    if reason is not None:
        raise ScriptError(f"kat-subterm: {node.arg} and {to} are not provably equal ({reason})")
    return Rewrite(0, 1, (emb(node.side, to),))


LAWS: dict[str, Law] = {
    "lrc": Law(_lrc, ("at",), ("at",)),
    "hom-seq": Law(partial(_hom, Seq, kseq, bseq, "a sequence"), (), ("at", "count")),
    "hom-plus": Law(partial(_hom, Plus, kplus, bplus, "a sum"), (), ()),
    "hom-star": Law(partial(_hom, Star, kstar, bstar, "a star"), (), ()),
    "hom-test": Law(partial(_canonical, "a one-sided test",
                            lambda t: isinstance(t, BTest) and side_test(t.test) is not None)),
    "distrib-left": Law(partial(_distrib, True), ("at",), ("at", "count")),
    "distrib-right": Law(partial(_distrib, False), ("at",), ("at", "count")),
    "unfold-star": Law(_unfold_star, (), ()),
    "slide": Law(_slide, ("at",), ("at",)),
    "assoc": Law(partial(_canonical, "a node", lambda t: True)),
    "comm-plus": Law(partial(_canonical, "a sum", lambda t: isinstance(t, BPlus))),
    "expand-lockstep": Law(partial(_expand, expand_lockstep, ()), ("at", "e", "c", "e2", "c2")),
    "expand-cond": Law(partial(_expand, expand_conditional, ("q", "r")),
                       ("at", "e", "c", "e2", "c2", "q", "r")),
    "hyp": Law(_hyp, ("at", "name", "side")),
    "kat-subterm": Law(_kat_subterm, ("to",)),
}


def apply_step(t: BiKatTerm, step: Step, ctx: ScriptContext) -> tuple[BiKatTerm, LawInstance | None]:
    """Apply one law at the node `step.path` addresses: the law rewrites a
    segment of the node's chain, and the spliced term is re-simplified.  The
    instance is the segment and its replacement; None for a law that canonical
    form already applies."""
    law = LAWS.get(step.law)
    if law is None:
        raise ScriptError(f"unknown law {step.law!r}")
    direction = step.params.get("dir")
    reads = {None: law.params, "rev": law.rev}.get(direction)
    if reads is None:
        raise ScriptError(f"{step.law} has no direction {direction!r}")
    r = Redex(step.law, direction == "rev", step.params, seq_chain(subterm_at(t, step.path)), ctx)
    extra = sorted(set(step.params) - {"dir", *reads})
    if extra:
        raise ScriptError(f"{r.name} does not read " + ", ".join(extra))
    rw = law.apply(r)
    spliced = bseq(*r.chain[:rw.start], *rw.factors, *r.chain[rw.start + rw.count:])
    after = bisimplify(replace_at(t, step.path, spliced))
    if not rw.count:
        return after, None
    return after, LawInstance(rw.name or step.law, bseq(*r.chain[rw.start:rw.start + rw.count]),
                              bseq(*rw.factors), rw.star_continuous_only)


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
