"""Problem files: declarations, programs, specs, witnesses, scripts.

One self-contained file per verification problem.  Blocks:

    width 3;
    vars n i r;  var z:4;  array a[4]:1;
    ftable f 0 1 1 0 1 0 0 1;            # or: ftable f seed 7;
    left { ... }   right { ... }          # programs, C-like syntax
    kind allall;                          # allall fsim bsim existsforall
                                          # existsexists incorrectness
    pre  { [n == n] & L[0 <= n] }
    post { [r == r] }
    hyp name { i := 0 ; ![i <= N] }       # a term asserted to denote nothing
    relhyp name allall { left {...} right {...} pre {...} post {...} }
    implhyp name { bitest } { bitest }    # lhs implies rhs
    witness { <x := any | t := any> ; [x - 1 == t] ; ... }
    script { start {...} goal {...} steps { law @ path (params) ... } }
    expect holds;                         # a check that must pass

Any other block is refused.  `#` starts a comment anywhere.

Bitests: `[lexpr OP rexpr]` compares a left-state expression with a
right-state one; `L[cond]` / `R[cond]` are one-sided conditions; combine with
`&`, `|`, `!`, `true`, `false`.  Inside witness/script terms, `<k]`, `[k>`
and `<k|k>` embed program fragments written in the same C-like syntax.
Witness, script and bitest blocks all use the one BiKAT grammar of
`bi.parse.bikat_grammar` (a bitest block is a term of it that is a bitest),
so a script goal may hold any bitest a pre may.  All terms use the one Kleene
grammar of `kat.parse`; program conditions use its one boolean grammar;
script steps are parsed by `bi.parse.parse_step`.  The named blocks inside
`relhyp` and `script` are read by one loop, `_blocks`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import partial

from .bi import script
from .bi.parse import as_bitest, bikat_grammar, parse_script_lines
from .bi.script import AlignmentScript, ScriptContext, Step
from .bi.terms import BT1, BiKatTerm, BiTestTerm, emb_pair
from .judge import oracles, witness
from .judge.core import Judgment, RelSpec
from .judge.oracles import ORACLES
from .kat.decide import ZeroHypothesis
from .kat.parse import Cur, Kleene, ParseError, or_and, parse_all
from .kat.terms import KAT, K0, K1, KatTerm, TestTerm, ktest, tnot
from .models.bmodel import BiModel
from .models.imp import (BAndE, BCmp, BConst, BNotE, BOrE, EArr, EBin, ECall,
                         EConst, EVar, ImpEnv, Program, SArrAssign, SAssign,
                         SAssume, SHavoc, SIf, SSkip, SWhile, Stmt)
from .models.space import SIZE_CAP, ArrayDecl, SpaceError, StateSpace, VarDecl
from .rhl import proof
from .rhl.proof import (ImplicationHypothesis, RelHypothesis, RhlContext,
                        RhlJudgment, rel_bitest_term)

_CMP_OPS = ("==", "!=", "<=", ">=", "<", ">")


# --- expressions ------------------------------------------------------------

def parse_expr(c: Cur):
    return _expr_sum(c)


def _expr_sum(c: Cur):
    t = _expr_prod(c)
    while True:
        if c.eat("+"):
            t = EBin("+", t, _expr_prod(c))
        elif c.peek() == "-" and c.peek(2) != "->":
            c.expect("-")
            t = EBin("-", t, _expr_prod(c))
        else:
            return t


def _expr_prod(c: Cur):
    t = _expr_atom(c)
    while True:
        if c.eat("*"):
            t = EBin("*", t, _expr_atom(c))
        elif c.eat("%"):
            t = EBin("%", t, _expr_atom(c))
        else:
            return t


def _expr_atom(c: Cur):
    ch = c.peek()
    if ch == "(":
        c.expect("(")
        t = parse_expr(c)
        c.expect(")")
        return t
    if ch.isdigit():
        return EConst(c.number())
    name = c.ident()
    if c.peek() == "(":
        c.expect("(")
        args = [parse_expr(c)]
        while c.eat(","):
            args.append(parse_expr(c))
        c.expect(")")
        return ECall(name, tuple(args))
    if c.peek() == "[":
        c.expect("[")
        idx = parse_expr(c)
        c.expect("]")
        return EArr(name, idx)
    return EVar(name)


def parse_bool(c: Cur):
    return or_and(c, _bool_atom, ("||", "&&"), BOrE, BAndE)


def _bool_atom(c: Cur):
    if c.eat("!"):
        return BNotE(_bool_atom(c))
    save = c.i
    if c.eat("("):
        # could be a parenthesized boolean or an arithmetic subexpression
        try:
            b = parse_bool(c)
            c.expect(")")
            return b
        except ParseError:
            c.i = save
    if c.eat("true"):
        return BConst(True)
    if c.eat("false"):
        return BConst(False)
    left = parse_expr(c)
    c.skip_ws()
    for op in _CMP_OPS:
        if c.eat(op):
            return BCmp(op, left, parse_expr(c))
    raise ParseError("expected a comparison operator", c.i)


# --- statements --------------------------------------------------------------

def parse_block(c: Cur) -> Program:
    c.expect("{")
    out: list[Stmt] = []
    while not c.eat("}"):
        out.append(parse_stmt(c))
        c.eat(";")
    return tuple(out)


def parse_stmt(c: Cur) -> Stmt:
    if c.eat("skip"):
        return SSkip()
    if c.peek(2) == "if" and not c.peek(3)[2:3].isalnum():
        c.expect("if")
        c.expect("(")
        cond = parse_bool(c)
        c.expect(")")
        then = parse_block(c)
        els: Program = ()
        if c.eat("else"):
            els = parse_block(c)
        return SIf(cond, then, els)
    if c.peek(5) == "while":
        c.expect("while")
        c.expect("(")
        cond = parse_bool(c)
        c.expect(")")
        return SWhile(cond, parse_block(c))
    if c.peek(6) == "assume":
        c.expect("assume")
        c.expect("(")
        cond = parse_bool(c)
        c.expect(")")
        return SAssume(cond)
    name = c.ident()
    if c.peek() == "[":
        c.expect("[")
        idx = parse_expr(c)
        c.expect("]")
        c.expect(":=")
        return SArrAssign(name, idx, parse_expr(c))
    c.expect(":=")
    if c.eat("any"):
        return SHavoc(name)
    return SAssign(name, parse_expr(c))


def parse_stmts_text(text: str) -> Program:
    c = Cur("{" + text + "}")
    return parse_block(c)


# --- terms over program syntax -----------------------------------------------

def _closed_bool(c: Cur):
    """A program condition and the `]` that closes it."""
    b = parse_bool(c)
    c.expect("]")
    return b


def _condition(c: Cur):
    """A program condition, optionally in brackets."""
    return _closed_bool(c) if c.eat("[") else parse_bool(c)


class ImpTermParser:
    """Parses program-syntax terms, registering primitives in an ImpEnv.

    KAT atoms are statements and bracketed conditions; BiKAT terms are those
    of the one grammar `bi.parse.bikat_grammar`, over this KAT grammar, with
    program conditions inside `L[..]` and `R[..]` and the comparison
    `[lexpr OP rexpr]` as the bitest atom."""

    def __init__(self, env: ImpEnv, bm: BiModel):
        self.env = env
        self.bm = bm
        self._kat = Kleene(self._kat_atom, KAT)
        self._bi = bikat_grammar(self._kat, self._side, self._compare)

    def kat(self, text: str) -> KatTerm:
        return parse_all(text, self._kat.term)

    def test(self, text: str) -> TestTerm:
        return self.env.compile_bool(parse_all(text, _condition))

    def bitest(self, text: str) -> BiTestTerm:
        return as_bitest(self.bikat(text), 0)

    def bikat(self, text: str) -> BiKatTerm:
        return parse_all(text, self._bi.term)

    def _kat_atom(self, c: Cur) -> KatTerm:
        if c.eat("("):
            t = self._kat.term(c)
            c.expect(")")
            return t
        if c.eat("["):
            return ktest(self.env.compile_bool(_closed_bool(c)))
        if c.eat("0"):
            return K0
        if c.eat("1"):
            return K1
        if c.eat("!"):
            c.expect("[")
            return ktest(tnot(self.env.compile_bool(_closed_bool(c))))
        return self.env.compile_stmt(parse_stmt(c))

    def _side(self, c: Cur) -> TestTerm:
        return self.env.compile_bool(parse_bool(c))

    def _compare(self, c: Cur) -> BiTestTerm | None:
        """`[lexpr OP rexpr]`, committed once OP is read; None, having read
        nothing, where no comparison operator follows `[lexpr`, so that the
        `[` opens a right embedding `[k>`."""
        c.skip_ws()
        start = c.i
        if not c.eat("["):
            return None
        try:
            lexpr = parse_expr(c)
            op = next((op for op in _CMP_OPS if c.eat(op)), None)
        except ParseError:
            op = None
        if op is None:
            c.i = start
            return None
        rexpr = parse_expr(c)
        c.expect("]")
        return rel_bitest_term(RhlContext(self.env, self.bm), lexpr, op, rexpr)


# --- problem files -------------------------------------------------------------

# The checks of a problem after the six judgment kinds, in record order: the
# term each reads (a problem attribute, or "tree": a parsed proof given with
# it) and its call on the problem, that term and the problem's judgment.  Each
# call looks its function up in the module as it runs: a later wrapper is seen.
CHECKS = {
    "adequate": ("script_goal", lambda p, goal, j: oracles.check_adequacy(
        p.bm, j.spec.pre, j.left, j.right, goal)),
    "script_accepted": ("script_goal", lambda p, goal, j: script.check_script(
        p.script(), p.script_context())),
    "witness_fvalid": ("witness", lambda p, w, j: witness.check_fvalid(p.bm, w, j)),
    "witness_bvalid": ("witness", lambda p, w, j: witness.check_bvalid(p.bm, w, j)),
    "proof_accepted": ("tree", lambda p, tree, j: proof.check_proof(
        p.rhl_context(), tree, p.rhl_judgment())),
}


def passed(result) -> bool:
    """The verdict of a check's result: a judgment's `holds`, a witness
    report's `valid`, a script's or a proof's `accepted`."""
    return next(getattr(result, v) for v in ("holds", "valid", "accepted") if hasattr(result, v))


@dataclass
class Problem:
    name: str
    width: int
    env: ImpEnv
    bm: BiModel
    left: Program = ()
    right: Program = ()
    kind: str = "allall"
    pre: BiTestTerm = BT1
    post: BiTestTerm = BT1
    witness: BiKatTerm | None = None
    script_goal: BiKatTerm | None = None
    script_steps: tuple[Step, ...] = ()
    script_start: BiKatTerm | None = None
    zero_hyps: dict[str, ZeroHypothesis] = field(default_factory=dict)
    rel_hyps: dict[str, RelHypothesis] = field(default_factory=dict)
    impl_hyps: dict[str, ImplicationHypothesis] = field(default_factory=dict)
    expects: list[str] = field(default_factory=list)
    parser: ImpTermParser | None = None

    def judgment(self) -> Judgment:
        return Judgment(self.kind, self.env.compile_block(self.left),
                        self.env.compile_block(self.right),
                        RelSpec(self.pre, self.post))

    def rhl_judgment(self) -> RhlJudgment:
        return RhlJudgment(self.kind, self.left, self.right, self.pre, self.post)

    def rhl_context(self) -> RhlContext:
        return RhlContext(self.env, self.bm, self.rel_hyps, self.impl_hyps)

    def script(self) -> AlignmentScript | None:
        if self.script_goal is None:
            return None
        start = self.script_start
        if start is None:
            start = emb_pair(self.env.compile_block(self.left),
                             self.env.compile_block(self.right))
        return AlignmentScript(start, self.script_steps, self.script_goal)

    def script_context(self) -> ScriptContext:
        p = self.parser
        return ScriptContext(
            hypotheses=self.zero_hyps,
            parse_kat=p.kat,
            parse_bitest=p.bitest,
            parse_test=p.test,
            model=self.bm.base,
        )

    def checks(self, tree: proof.ProofTree | None = None) -> dict:
        """Each check of this problem, by name, as a call of no arguments:
        the judgment kinds of `ORACLES` on its programs, pre and post, then
        each entry of `CHECKS` whose term it has; `proof_accepted` only given
        a parsed proof `tree`."""
        j = self.judgment()
        out = {kind: partial(lambda jk: oracles.dispatch(self.bm, jk), replace(j, kind=kind))
               for kind in ORACLES}
        for name, (reads, run) in CHECKS.items():
            term = tree if reads == "tree" else getattr(self, reads)
            if term is not None:
                out[name] = partial(run, self, term, j)
        return out

    def check_of(self, expect: str) -> str:
        """The check that an expect line names: `holds` is the kind's."""
        return self.kind if expect == "holds" else expect


def load_problem(text: str, name: str = "<problem>",
                 width_override: int | None = None) -> Problem:
    try:
        return _load(text, name, width_override)
    except RecursionError:
        raise ParseError("problem nested too deeply") from None


def _load(text: str, name: str, width_override: int | None) -> Problem:
    c = Cur(text)
    width = 3
    vars: list[VarDecl] = []
    arrays: list[ArrayDecl] = []
    ftables: dict[str, tuple[int, ...] | int] = {}  # a table or its seed
    raw: list[tuple] = []

    # pass 1: declarations (in order), other blocks collected raw
    while not c.at_end():
        key = c.ident()
        if key == "width":
            width = c.number()
            c.expect(";")
        elif key == "vars":
            while c.peek() != ";":
                vars.append(VarDecl(c.ident(), -1))
            c.expect(";")
        elif key == "var":
            vname = c.ident()
            w = -1
            if c.eat(":"):
                w = c.number()
            vars.append(VarDecl(vname, w))
            c.expect(";")
        elif key == "array":
            aname = c.ident()
            c.expect("[")
            length = c.number()
            c.expect("]")
            w = -1
            if c.eat(":"):
                w = c.number()
            arrays.append(ArrayDecl(aname, length, w))
            c.expect(";")
        elif key == "ftable":
            fname = c.ident()
            if c.eat("seed"):
                ftables[fname] = c.number()
            else:
                vals = []
                while c.peek() != ";":
                    vals.append(c.number())
                ftables[fname] = tuple(vals)
            c.expect(";")
        elif key in ("kind", "expect"):
            word = c.ident()
            raw.append((key, word, c.i - len(word)))
            c.expect(";")
        elif key in ("hyp", "relhyp", "implhyp"):
            hname = c.ident()
            if key == "relhyp":
                hkind = c.ident()
                raw.append((key, hname, hkind, c.braced_at()))
            elif key == "implhyp":
                raw.append((key, hname, c.braced_at(), c.braced_at()))
            else:
                raw.append((key, hname, c.braced_at()))
        else:
            raw.append((key, c.braced_at()))

    if width_override is not None:
        width = width_override
    vars = [VarDecl(v.name, width if v.width < 0 else v.width) for v in vars]
    arrays = [ArrayDecl(a.name, a.length, width if a.width < 0 else a.width)
              for a in arrays]
    space = StateSpace.structured(vars, arrays)
    for fname, val in ftables.items():
        if isinstance(val, int):
            if 1 << width > SIZE_CAP:
                raise SpaceError(f"function table {fname!r} would need 2^{width} "
                                 f"entries, cap is {SIZE_CAP}")
            rng = random.Random(val)
            ftables[fname] = tuple(rng.randrange(1 << width) for _ in range(1 << width))
    env = ImpEnv(space, width, ftables)
    bm = BiModel(env.kat_model())
    parser = ImpTermParser(env, bm)
    prob = Problem(name, width, env, bm, parser=parser)

    blocks = {"left": parse_stmts_text, "right": parse_stmts_text,
              "pre": parser.bitest, "post": parser.bitest, "witness": parser.bikat}
    parts = {"start": parser.bikat, "goal": parser.bikat,
             "steps": lambda blob: tuple(parse_script_lines(blob))}
    for entry in raw:
        key = entry[0]
        if key == "kind":
            prob.kind = _judgment_kind(entry[1])
        elif key == "expect":
            prob.expects.append(entry[1])
        elif key in blocks:
            setattr(prob, key, _within(key, entry[1], blocks[key]))
        elif key == "hyp":
            prob.zero_hyps[entry[1]] = ZeroHypothesis(
                entry[1], _within(f"hyp {entry[1]}", entry[2], parser.kat))
        elif key == "relhyp":
            hkind = _judgment_kind(entry[2])
            prob.rel_hyps[entry[1]] = RelHypothesis(entry[1], _within(
                f"relhyp {entry[1]}", entry[3], lambda blob: _relhyp(blob, hkind, parser)))
        elif key == "implhyp":
            name = f"implhyp {entry[1]}"
            prob.impl_hyps[entry[1]] = ImplicationHypothesis(
                entry[1], _within(name, entry[2], parser.bitest),
                _within(name, entry[3], parser.bitest))
        elif key == "script":
            for part, value in _within(key, entry[1],
                                       lambda blob: _blocks(blob, "script", parts)).items():
                setattr(prob, f"script_{part}", value)
        else:
            raise ParseError(f"unknown problem block {key!r}")
    # an expect line names a check, and the problem has the term it reads;
    # `holds` reads none, and a proof tree is given with a problem, not in it
    for _, word, at in (entry for entry in raw if entry[0] == "expect"):
        if word != "holds" and word not in CHECKS:
            raise ParseError(f"unknown expect {word!r}; known: holds, {', '.join(CHECKS)}", at)
        reads = CHECKS[word][0] if word in CHECKS else None
        if reads not in (None, "tree") and getattr(prob, reads) is None:
            raise ParseError(f"expect {word}: the problem has no {reads.replace('_', ' ')}", at)
    # a bad program is refused here rather than in the middle of a check;
    # compiling binds each primitive once, and later compiles reuse it
    programs = [prob.left, prob.right]
    for h in prob.rel_hyps.values():
        programs += [h.judgment.left, h.judgment.right]
    for program in programs:
        env.compile_block(program)
    return prob


def _within(name: str, block: tuple[int, str], parse):
    """`parse` applied to the body of a block that starts at `block[0]` in
    the enclosing text.  A `ParseError` is raised again with its offset in
    that text (the body's start if it had none) and the block's name."""
    start, body = block
    try:
        return parse(body)
    except ParseError as e:
        raise ParseError(f"{name} block: {e.msg}", start + max(e.pos, 0)) from None


def _judgment_kind(word: str) -> str:
    if word not in ORACLES:
        raise ParseError(f"unknown kind {word!r}; known kinds: " + ", ".join(ORACLES))
    return word


def _blocks(blob: str, what: str, parsers: dict) -> dict:
    """The blocks `key { body }` of `blob`, each body parsed by
    `parsers[key]`; of two blocks with one key, the later is kept."""
    c = Cur(blob)
    got = {}
    while not c.at_end():
        key = c.ident()
        block = c.braced_at()
        if key not in parsers:
            raise ParseError(f"unknown {what} block {key!r}")
        got[key] = _within(key, block, parsers[key])
    return got


def _relhyp(blob: str, kind: str, parser: ImpTermParser) -> RhlJudgment:
    got = _blocks(blob, "relhyp", {
        "left": parse_stmts_text, "right": parse_stmts_text,
        "pre": parser.bitest, "post": parser.bitest})
    return RhlJudgment(kind, got.get("left", ()), got.get("right", ()),
                       got.get("pre", BT1), got.get("post", BT1))
