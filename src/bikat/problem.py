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
    script { goal {...} steps { law @ path (params) ... } }
    gcleft { [g] -> { stmts } ... }  gcright { ... }   # guarded-command form
    sel_l {bitest}  sel_r {bitest}  sel_j {bitest}
    expect holds;                         # recorded expectation (corpus run)

Bitests: `[lexpr OP rexpr]` compares a left-state expression with a
right-state one; `L[cond]` / `R[cond]` are one-sided conditions; combine with
`&`, `|`, `!`, `true`, `false`.  Inside witness/script terms, `<k]`, `[k>`
and `<k|k>` embed program fragments written in the same C-like syntax.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

from .bi.script import AlignmentScript, ScriptContext, Step
from .bi.parse import parse_path
from .bi.terms import (BT1, BiKatTerm, BiTestTerm, band, bembl, bembr, bnot,
                       bor, bplus, bseq, bstar, btest, emb_pair, BEmbLTest,
                       BEmbRTest)
from .judge.core import ExprBitest, Judgment, RelSpec
from .judge.oracles import ORACLES
from .kat.decide import ZeroHypothesis
from .kat.parse import ParseError
from .kat.terms import KatTerm, TestTerm, kplus, kseq, kstar, ktest, tnot
from .models.bmodel import BiModel
from .models.imp import (BAndE, BCmp, BConst, BNotE, BOrE, EArr, EBin, ECall,
                         EConst, EVar, ImpEnv, Program, SArrAssign, SAssign,
                         SAssume, SHavoc, SIf, SSkip, SWhile, Stmt, bool_str)
from .models.space import ArrayDecl, StateSpace, VarDecl
from .rhl.proof import ImplicationHypothesis, RelHypothesis, RhlContext, RhlJudgment

_CMP_OPS = ("==", "!=", "<=", ">=", "<", ">")


class Cur:
    def __init__(self, text: str, pos: int = 0):
        self.text = text
        self.i = pos

    def skip_ws(self):
        while self.i < len(self.text):
            ch = self.text[self.i]
            if ch == "#":
                nl = self.text.find("\n", self.i)
                self.i = len(self.text) if nl < 0 else nl + 1
            elif ch.isspace():
                self.i += 1
            else:
                break

    def peek(self, k: int = 1) -> str:
        self.skip_ws()
        return self.text[self.i:self.i + k]

    def eat(self, s: str) -> bool:
        self.skip_ws()
        if self.text.startswith(s, self.i):
            self.i += len(s)
            return True
        return False

    def expect(self, s: str):
        if not self.eat(s):
            got = self.text[self.i:self.i + 12]
            raise ParseError(f"expected {s!r}, found {got!r}", self.i)

    def ident(self) -> str:
        self.skip_ws()
        m = re.match(r"[A-Za-z_][A-Za-z0-9_]*", self.text[self.i:])
        if not m:
            raise ParseError(f"expected identifier at {self.text[self.i:self.i+12]!r}", self.i)
        self.i += m.end()
        return m.group(0)

    def number(self) -> int:
        self.skip_ws()
        m = re.match(r"\d+", self.text[self.i:])
        if not m:
            raise ParseError("expected a number", self.i)
        self.i += m.end()
        return int(m.group(0))

    def at_end(self) -> bool:
        self.skip_ws()
        return self.i >= len(self.text)


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
    return _bool_or(c)


def _bool_or(c: Cur):
    t = _bool_and(c)
    parts = [t]
    while c.eat("||"):
        parts.append(_bool_and(c))
    return parts[0] if len(parts) == 1 else BOrE(tuple(parts))


def _bool_and(c: Cur):
    parts = [_bool_atom(c)]
    while c.eat("&&"):
        parts.append(_bool_atom(c))
    return parts[0] if len(parts) == 1 else BAndE(tuple(parts))


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

def parse_impkat(c: Cur) -> KatTerm:
    """KAT term whose atoms are statements and bracketed conditions."""
    parts = [_impkat_seq(c)]
    while c.eat("+"):
        parts.append(_impkat_seq(c))
    return kplus(*parts)


def _impkat_seq(c: Cur) -> KatTerm:
    parts = [_impkat_star(c)]
    while c.eat(";"):
        parts.append(_impkat_star(c))
    return kseq(*parts)


def _impkat_star(c: Cur) -> KatTerm:
    t = _impkat_atom(c)
    while c.eat("*"):
        t = kstar(t)
    return t


class ImpTermParser:
    """Parses program-syntax terms, registering primitives in an ImpEnv."""

    def __init__(self, env: ImpEnv, bm: BiModel):
        self.env = env
        self.bm = bm

    # KAT level ----------------------------------------------------------

    def kat(self, text: str) -> KatTerm:
        c = _EnvCur(text, self)
        t = parse_impkat(c)
        if not c.at_end():
            raise ParseError(f"trailing input {c.text[c.i:]!r}", c.i)
        return t

    def test(self, text: str) -> TestTerm:
        c = _EnvCur(text, self)
        if c.eat("["):
            b = parse_bool(c)
            c.expect("]")
        else:
            b = parse_bool(c)
        if not c.at_end():
            raise ParseError(f"trailing input {c.text[c.i:]!r}", c.i)
        return self.env.compile_bool(b)

    # bitests --------------------------------------------------------------

    def bitest(self, text: str) -> BiTestTerm:
        c = _EnvCur(text, self)
        t = self._bitest_or(c)
        if not c.at_end():
            raise ParseError(f"trailing input {c.text[c.i:]!r}", c.i)
        return t

    def _bitest_or(self, c: Cur) -> BiTestTerm:
        parts = [self._bitest_and(c)]
        while c.eat("|"):
            parts.append(self._bitest_and(c))
        return bor(*parts)

    def _bitest_and(self, c: Cur) -> BiTestTerm:
        parts = [self._bitest_atom(c)]
        while c.eat("&"):
            parts.append(self._bitest_atom(c))
        return band(*parts)

    def _bitest_atom(self, c: Cur) -> BiTestTerm:
        if c.eat("!"):
            return bnot(self._bitest_atom(c))
        if c.eat("("):
            t = self._bitest_or(c)
            c.expect(")")
            return t
        if c.eat("true"):
            from .bi.terms import BOne
            return BOne()
        if c.eat("false"):
            from .bi.terms import BZero
            return BZero()
        if c.eat("L["):
            b = parse_bool(c)
            c.expect("]")
            return BEmbLTest(self.env.compile_bool(b))
        if c.eat("R["):
            b = parse_bool(c)
            c.expect("]")
            return BEmbRTest(self.env.compile_bool(b))
        c.expect("[")
        lexpr = parse_expr(c)
        c.skip_ws()
        for op in _CMP_OPS:
            if c.eat(op):
                rexpr = parse_expr(c)
                c.expect("]")
                return self.rel_bitest(lexpr, op, rexpr)
        raise ParseError("expected a comparison in a bitest", c.i)

    def rel_bitest(self, lexpr, op: str, rexpr) -> BiTestTerm:
        from .rhl.proof import rel_bitest_term
        ctx = RhlContext(self.env, self.bm)
        return rel_bitest_term(ctx, lexpr, op, rexpr)

    # two-sided terms -------------------------------------------------------

    def bikat(self, text: str) -> BiKatTerm:
        c = _EnvCur(text, self)
        t = self._bi_sum(c)
        if not c.at_end():
            raise ParseError(f"trailing input {c.text[c.i:]!r}", c.i)
        return t

    def _bi_sum(self, c: Cur) -> BiKatTerm:
        parts = [self._bi_seq(c)]
        while c.eat("+"):
            parts.append(self._bi_seq(c))
        return bplus(*parts)

    def _bi_seq(self, c: Cur) -> BiKatTerm:
        parts = [self._bi_star(c)]
        while c.eat(";"):
            parts.append(self._bi_star(c))
        return bseq(*parts)

    def _bi_star(self, c: Cur) -> BiKatTerm:
        t = self._bi_atom(c)
        while c.eat("*"):
            t = bstar(t)
        return t

    def _bi_atom(self, c: Cur) -> BiKatTerm:
        ch = c.peek()
        if ch == "(":
            c.expect("(")
            t = self._bi_sum(c)
            c.expect(")")
            return t
        if ch == "!":
            c.expect("!")
            inner = self._bitest_atom(c)
            return btest(bnot(inner))
        if c.peek(2) in ("L[", "R[") or c.peek(5) == "false":
            return btest(self._bitest_atom(c))
        if ch == "<":
            c.expect("<")
            left = parse_impkat(c)
            if c.eat("|"):
                right = parse_impkat(c)
                c.expect(">")
                return emb_pair(left, right)
            c.expect("]")
            return bembl(left)
        if ch == "[":
            # bitest "[e OP e]" or right embedding "[k>": try the bitest shape
            save = c.i
            try:
                t = self._bitest_atom(c)
                return btest(t)
            except ParseError:
                c.i = save
            c.expect("[")
            k = parse_impkat(c)
            c.expect(">")
            return bembr(k)
        if c.eat("true"):
            return btest(BT1)
        raise ParseError(f"unexpected term at {c.text[c.i:c.i+16]!r}", c.i)


class _EnvCur(Cur):
    def __init__(self, text: str, parser: ImpTermParser):
        super().__init__(text)
        self.parser = parser


# hook statement/condition atoms into the env while parsing terms
_parse_impkat_atom_orig = None


def _impkat_atom(c: Cur) -> KatTerm:
    parser: ImpTermParser = c.parser  # type: ignore[attr-defined]
    ch = c.peek()
    if ch == "(":
        c.expect("(")
        t = parse_impkat(c)
        c.expect(")")
        return t
    if ch == "[":
        c.expect("[")
        b = parse_bool(c)
        c.expect("]")
        return ktest(parser.env.compile_bool(b))
    if ch == "0":
        c.expect("0")
        from .kat.terms import K0
        return K0
    if ch == "1":
        c.expect("1")
        from .kat.terms import K1
        return K1
    if ch == "!":
        c.expect("!")
        c.expect("[")
        b = parse_bool(c)
        c.expect("]")
        return ktest(tnot(parser.env.compile_bool(b)))
    stmt = parse_stmt(c)
    return parser.env.compile_stmt(stmt)


# --- problem files -------------------------------------------------------------

@dataclass
class GuardedCommand:
    guard: object  # BoolExpr
    action: Program


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
    gc_left: list[GuardedCommand] = field(default_factory=list)
    gc_right: list[GuardedCommand] = field(default_factory=list)
    selectors: dict[str, BiTestTerm] = field(default_factory=dict)
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


_BLOCK_MARK = re.compile(r"[#{}]")


def _grab_block(c: Cur) -> str:
    c.expect("{")
    depth = 1
    start = c.i
    m = _BLOCK_MARK.search(c.text, start)
    while m:
        pos = m.end()
        if m.group() == "#":
            pos = c.text.find("\n", pos)
            if pos < 0:
                break
        elif m.group() == "{":
            depth += 1
        else:
            depth -= 1
            if depth == 0:
                c.i = pos
                return c.text[start:m.start()]
        m = _BLOCK_MARK.search(c.text, pos)
    raise ParseError("unclosed '{'", start)


def load_problem(text: str, name: str = "<problem>",
                 width_override: int | None = None) -> Problem:
    c = Cur(text)
    width = 3
    vars: list[VarDecl] = []
    arrays: list[ArrayDecl] = []
    ftables: dict[str, tuple[int, ...]] = {}
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
                seed = c.number()
                rng = random.Random(seed)
                vals = None  # filled after width is final
                ftables[fname] = ("seed", seed)  # type: ignore[assignment]
            else:
                vals = []
                while c.peek() != ";":
                    vals.append(c.number())
                ftables[fname] = tuple(vals)
            c.expect(";")
        elif key in ("kind", "expect"):
            word = c.ident()
            c.expect(";")
            raw.append((key, word))
        elif key in ("hyp", "relhyp", "implhyp"):
            hname = c.ident()
            if key == "relhyp":
                hkind = c.ident()
                raw.append((key, hname, hkind, _grab_block(c)))
            elif key == "implhyp":
                raw.append((key, hname, _grab_block(c), _grab_block(c)))
            else:
                raw.append((key, hname, _grab_block(c)))
        elif key == "script":
            raw.append(("script", _grab_block(c)))
        else:
            raw.append((key, _grab_block(c)))

    if width_override is not None:
        width = width_override
    vars = [VarDecl(v.name, width if v.width < 0 else v.width) for v in vars]
    arrays = [ArrayDecl(a.name, a.length, width if a.width < 0 else a.width)
              for a in arrays]
    space = StateSpace.structured(vars, arrays)
    for fname, val in list(ftables.items()):
        if isinstance(val, tuple) and val and val[0] == "seed":
            rng = random.Random(val[1])
            ftables[fname] = tuple(rng.randrange(1 << width)
                                   for _ in range(1 << width))
    env = ImpEnv(space, width, ftables)
    bm = BiModel(env.kat_model())
    # the model shares the env registries so later-compiled prims are visible
    bm.base.acts = env.acts
    bm.base.tests = env.tests
    parser = ImpTermParser(env, bm)
    prob = Problem(name, width, env, bm, parser=parser)

    for entry in raw:
        key = entry[0]
        if key == "kind":
            prob.kind = _judgment_kind(entry[1])
        elif key == "expect":
            prob.expects.append(entry[1])
        elif key == "left":
            prob.left = parse_stmts_text(entry[1])
        elif key == "right":
            prob.right = parse_stmts_text(entry[1])
        elif key == "pre":
            prob.pre = parser.bitest(entry[1])
        elif key == "post":
            prob.post = parser.bitest(entry[1])
        elif key == "witness":
            prob.witness = parser.bikat(entry[1])
        elif key == "hyp":
            prob.zero_hyps[entry[1]] = ZeroHypothesis(entry[1], parser.kat(entry[2]))
        elif key == "relhyp":
            prob.rel_hyps[entry[1]] = RelHypothesis(
                entry[1], _parse_relhyp(entry[3], _judgment_kind(entry[2]), parser))
        elif key == "implhyp":
            prob.impl_hyps[entry[1]] = ImplicationHypothesis(
                entry[1], parser.bitest(entry[2]), parser.bitest(entry[3]))
        elif key == "script":
            _parse_script_block(entry[1], prob, parser)
        elif key == "gcleft":
            prob.gc_left = _parse_gcommands(entry[1])
        elif key == "gcright":
            prob.gc_right = _parse_gcommands(entry[1])
        elif key in ("sel_l", "sel_r", "sel_j"):
            prob.selectors[key[-1]] = parser.bitest(entry[1])
        else:
            raise ParseError(f"unknown problem block {key!r}")
    # a bad program is refused here rather than in the middle of a check
    programs = [prob.left, prob.right]
    for h in prob.rel_hyps.values():
        programs += [h.judgment.left, h.judgment.right]
    for program in programs:
        env.check_block(program)
    return prob


def _judgment_kind(word: str) -> str:
    if word not in ORACLES:
        raise ParseError(f"unknown kind {word!r}; known kinds: " + ", ".join(ORACLES))
    return word


def _parse_relhyp(blob: str, kind: str, parser: ImpTermParser) -> RhlJudgment:
    c = Cur(blob)
    left = right = ()
    pre = post = BT1
    while not c.at_end():
        key = c.ident()
        body = _grab_block(c)
        if key == "left":
            left = parse_stmts_text(body)
        elif key == "right":
            right = parse_stmts_text(body)
        elif key == "pre":
            pre = parser.bitest(body)
        elif key == "post":
            post = parser.bitest(body)
        else:
            raise ParseError(f"unknown relhyp block {key!r}")
    return RhlJudgment(kind, left, right, pre, post)


def _parse_script_block(blob: str, prob: Problem, parser: ImpTermParser):
    c = Cur(blob)
    while not c.at_end():
        key = c.ident()
        body = _grab_block(c)
        if key == "start":
            prob.script_start = parser.bikat(body)
        elif key == "goal":
            prob.script_goal = parser.bikat(body)
        elif key == "steps":
            steps = []
            for line in body.splitlines():
                line = line.split("#", 1)[0].strip()
                if line:
                    steps.append(_parse_step_line(line))
            prob.script_steps = tuple(steps)
        else:
            raise ParseError(f"unknown script block {key!r}")


def _parse_step_line(line: str) -> Step:
    m = re.match(r"\s*([a-z-]+)\s*@\s*([0-9.]+|root|\.)\s*(?:\((.*)\))?\s*$", line)
    if not m:
        raise ParseError(f"bad script step {line!r}")
    law, path, params = m.group(1), m.group(2), m.group(3) or ""
    return Step(law, parse_path(path), _split_step_params(params), raw=line)


def _split_step_params(text: str) -> dict:
    # comparison operators make < > unusable as brackets here
    params: dict = {}
    depth = 0
    part: list[str] = []
    parts: list[str] = []
    for ch in text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(part))
            part = []
        else:
            part.append(ch)
    if part:
        parts.append("".join(part))
    for p in parts:
        p = p.strip()
        if not p:
            continue
        if p == "rev":
            params["dir"] = "rev"
            continue
        m = re.match(r"([A-Za-z0-9_-]+)\s*[:=]\s*(.*)$", p, re.S)
        if not m:
            raise ParseError(f"bad step parameter {p!r}")
        params[m.group(1)] = m.group(2).strip()
    return params


def _parse_gcommands(blob: str) -> list[GuardedCommand]:
    c = Cur(blob)
    out: list[GuardedCommand] = []
    while not c.at_end():
        c.expect("[")
        g = parse_bool(c)
        c.expect("]")
        c.expect("->")
        out.append(GuardedCommand(g, parse_block(c)))
        c.eat(";")
    return out


def guarded_product_term(prob: Problem) -> tuple[BiKatTerm, KatTerm, KatTerm]:
    """The selector-driven alignment of two guarded-command systems:

        ( J;<g;a|g';a'> + L;<g;a] + R;[g';a'> )* ; <!(sum g) | !(sum g')>

    summed over the rules of each side, plus the two plain loop terms for
    adequacy comparison."""
    env = prob.env
    if not prob.gc_left or not prob.gc_right:
        raise ParseError("product form needs gcleft and gcright blocks")
    sel_l = prob.selectors.get("l")
    sel_r = prob.selectors.get("r")
    sel_j = prob.selectors.get("j", BT1)

    def rule_term(gc: GuardedCommand) -> KatTerm:
        return kseq(ktest(env.compile_bool(gc.guard)), env.compile_block(gc.action))

    def exit_test(gcs: list[GuardedCommand]) -> KatTerm:
        from .kat.terms import tor
        guards = [env.compile_bool(gc.guard) for gc in gcs]
        return ktest(tnot(tor(*guards)))

    arms: list[BiKatTerm] = []
    for gl in prob.gc_left:
        for gr in prob.gc_right:
            arms.append(bseq(btest(sel_j), emb_pair(rule_term(gl), rule_term(gr))))
    if sel_l is not None:
        for gl in prob.gc_left:
            arms.append(bseq(btest(sel_l), bembl(rule_term(gl))))
    if sel_r is not None:
        for gr in prob.gc_right:
            arms.append(bseq(btest(sel_r), bembr(rule_term(gr))))
    product = bseq(bstar(bplus(*arms)),
                   emb_pair(exit_test(prob.gc_left), exit_test(prob.gc_right)))

    left_loop = kseq(kstar(kplus(*[rule_term(g) for g in prob.gc_left])),
                     exit_test(prob.gc_left))
    right_loop = kseq(kstar(kplus(*[rule_term(g) for g in prob.gc_right])),
                      exit_test(prob.gc_right))
    return product, left_loop, right_loop
