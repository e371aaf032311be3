"""A small imperative language over fixed-width integers and arrays.

Arithmetic wraps at the problem width (unsigned, modulo 2^width); stores
additionally wrap at the target's declared width.  Array indices wrap at the
array length.  `x := any` is nondeterministic choice over the variable's
range.  Programs compile to KAT terms whose primitive actions are the
assignment statements and whose primitive tests are the branch conditions.
Each primitive is bound to a closure over the state's bit offsets and to its
footprint (`reads`, computed on first use): the fields it reads, and for an
assignment the cells it may write.  Its successor table or test table is built on first use by
running the closure once per value of the footprint and lifting the results
to the whole space (`StateSpace.lift`); expression value lists (`values`)
are built the same way.  Havoc keeps one tuple of successors per state.
Names, arrays and function tables are resolved when a closure is built,
once per primitive when a program is compiled (`compile_block`), so
`load_problem`, which compiles every program it reads, refuses a bad program
before any check runs.  `eval`, `holds`, `step` and `run`
are a direct set-valued interpreter kept as the independent semantics that
the compiled one is cross-checked against.  Loops that fail to terminate
from a state simply contribute no final state there.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields, is_dataclass
from typing import Callable, Iterable, Union

from ..kat.terms import KatTerm, kact, kplus, kseq, kstar, ktest, tnot, tprim
from .kmodel import FnAction, KatModel, TestSem
from .space import ArrayDecl, SpaceError, StateSpace


# --- expressions -------------------------------------------------------------

@dataclass(frozen=True)
class EConst:
    value: int


@dataclass(frozen=True)
class EVar:
    name: str


@dataclass(frozen=True)
class EArr:
    name: str
    index: "Expr"


@dataclass(frozen=True)
class EBin:
    op: str  # + - * %
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class ECall:
    fn: str  # min, max, or a declared table function
    args: tuple["Expr", ...]


Expr = Union[EConst, EVar, EArr, EBin, ECall]


@dataclass(frozen=True)
class BCmp:
    op: str  # == != < <= > >=
    left: Expr
    right: Expr


@dataclass(frozen=True)
class BNotE:
    arg: "BoolExpr"


@dataclass(frozen=True)
class BAndE:
    args: tuple["BoolExpr", ...]


@dataclass(frozen=True)
class BOrE:
    args: tuple["BoolExpr", ...]


@dataclass(frozen=True)
class BConst:
    value: bool


BoolExpr = Union[BCmp, BNotE, BAndE, BOrE, BConst]


# --- statements ----------------------------------------------------------------

@dataclass(frozen=True)
class SSkip:
    pass


@dataclass(frozen=True)
class SAssign:
    var: str
    expr: Expr


@dataclass(frozen=True)
class SHavoc:
    var: str


@dataclass(frozen=True)
class SArrAssign:
    name: str
    index: Expr
    value: Expr


@dataclass(frozen=True)
class SIf:
    cond: BoolExpr
    then: tuple["Stmt", ...]
    els: tuple["Stmt", ...]


@dataclass(frozen=True)
class SWhile:
    cond: BoolExpr
    body: tuple["Stmt", ...]


@dataclass(frozen=True)
class SAssume:
    cond: BoolExpr


Stmt = Union[SSkip, SAssign, SHavoc, SArrAssign, SIf, SWhile, SAssume]
Program = tuple[Stmt, ...]


# --- printing (canonical forms double as primitive symbol names) -------------

_PREC = {"+": 1, "-": 1, "*": 2, "%": 2}


def expr_str(e: Expr, prec: int = 0) -> str:
    if isinstance(e, EConst):
        return str(e.value)
    if isinstance(e, EVar):
        return e.name
    if isinstance(e, EArr):
        return f"{e.name}[{expr_str(e.index)}]"
    if isinstance(e, ECall):
        return f"{e.fn}({', '.join(expr_str(a) for a in e.args)})"
    p = _PREC[e.op]
    s = f"{expr_str(e.left, p)} {e.op} {expr_str(e.right, p + 1)}"
    return f"({s})" if p < prec else s


def bool_str(b: BoolExpr, prec: int = 0) -> str:
    if isinstance(b, BConst):
        return "true" if b.value else "false"
    if isinstance(b, BCmp):
        s = f"{expr_str(b.left)} {b.op} {expr_str(b.right)}"
        return f"({s})" if prec > 2 else s
    if isinstance(b, BNotE):
        return f"!{bool_str(b.arg, 3)}"
    if isinstance(b, BAndE):
        s = " && ".join(bool_str(a, 2) for a in b.args)
        return f"({s})" if prec > 1 else s
    s = " || ".join(bool_str(a, 1) for a in b.args)
    return f"({s})" if prec > 0 else s


def stmt_str(s: Stmt) -> str:
    if isinstance(s, SSkip):
        return "skip"
    if isinstance(s, SAssign):
        return f"{s.var} := {expr_str(s.expr)}"
    if isinstance(s, SHavoc):
        return f"{s.var} := any"
    if isinstance(s, SArrAssign):
        return f"{s.name}[{expr_str(s.index)}] := {expr_str(s.value)}"
    if isinstance(s, SAssume):
        return f"assume({bool_str(s.cond)})"
    if isinstance(s, SIf):
        els = f" else {{ {block_str(s.els)} }}" if s.els else ""
        return f"if ({bool_str(s.cond)}) {{ {block_str(s.then)} }}{els}"
    return f"while ({bool_str(s.cond)}) {{ {block_str(s.body)} }}"


def block_str(stmts: Iterable[Stmt]) -> str:
    return " ".join(stmt_str(s) + ";" for s in stmts)


CMP_OPS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
           "<=": operator.le, ">": operator.gt, ">=": operator.ge}


# --- evaluation ----------------------------------------------------------------

class ImpEnv:
    """Shared evaluation context: state space, arithmetic width, function
    tables, and the registries binding compiled primitives to semantics."""

    def __init__(self, space: StateSpace, width: int,
                 ftables: dict[str, tuple[int, ...]] | None = None):
        self.space = space
        self.width = width
        self.mask = (1 << width) - 1
        self.ftables = dict(ftables or {})
        for fname, table in self.ftables.items():
            if not table:
                raise SpaceError(f"function table {fname!r} is empty")
        self.acts: dict[str, FnAction] = {}
        self.tests: dict[str, TestSem] = {}

    # expression / condition evaluation ---------------------------------

    def eval(self, e: Expr, state: int) -> int:
        if isinstance(e, EConst):
            return e.value & self.mask
        if isinstance(e, EVar):
            if not self.space.has_field(e.name):
                raise SpaceError(f"undeclared variable {e.name!r}")
            return self.space.get(state, e.name)
        if isinstance(e, EArr):
            decl = self.space.array_decl(e.name)
            if decl is None:
                raise SpaceError(f"undeclared array {e.name!r}")
            i = self.eval(e.index, state) % decl.length
            return self.space.get(state, (e.name, i))
        if isinstance(e, ECall):
            args = [self.eval(a, state) for a in e.args]
            if e.fn == "min":
                return min(args)
            if e.fn == "max":
                return max(args)
            table = self._table(e)
            return table[args[0] % len(table)] & self.mask
        a, b = self.eval(e.left, state), self.eval(e.right, state)
        if e.op == "+":
            return (a + b) & self.mask
        if e.op == "-":
            return (a - b) & self.mask
        if e.op == "*":
            return (a * b) & self.mask
        return a % b if b else a  # x % 0 = x, keeping % total

    def _table(self, e: ECall) -> tuple[int, ...]:
        """The table of `e`, a call of a declared function on one argument."""
        table = self.ftables.get(e.fn)
        if table is None:
            raise SpaceError(f"unknown function {e.fn!r} (no table declared)")
        if len(e.args) != 1:
            raise SpaceError(f"function {e.fn!r} takes one argument, not {len(e.args)}")
        return table

    def holds(self, b: BoolExpr, state: int) -> bool:
        if isinstance(b, BConst):
            return b.value
        if isinstance(b, BCmp):
            x, y = self.eval(b.left, state), self.eval(b.right, state)
            return {"==": x == y, "!=": x != y, "<": x < y,
                    "<=": x <= y, ">": x > y, ">=": x >= y}[b.op]
        if isinstance(b, BNotE):
            return not self.holds(b.arg, state)
        if isinstance(b, BAndE):
            return all(self.holds(a, state) for a in b.args)
        return any(self.holds(a, state) for a in b.args)

    # direct set-valued interpreter --------------------------------------

    def step(self, s: Stmt, state: int) -> frozenset[int]:
        if isinstance(s, SSkip):
            return frozenset((state,))
        if isinstance(s, SAssign):
            return frozenset((self.space.set(state, s.var, self.eval(s.expr, state)),))
        if isinstance(s, SHavoc):
            w = self.space.width_of(s.var)
            return frozenset(self.space.set(state, s.var, v) for v in range(1 << w))
        if isinstance(s, SArrAssign):
            decl = self.space.array_decl(s.name)
            i = self.eval(s.index, state) % decl.length
            return frozenset(
                (self.space.set(state, (s.name, i), self.eval(s.value, state)),))
        if isinstance(s, SAssume):
            return frozenset((state,)) if self.holds(s.cond, state) else frozenset()
        if isinstance(s, SIf):
            branch = s.then if self.holds(s.cond, state) else s.els
            return self.run(branch, frozenset((state,)))
        # while: reach the loop head closure, exit where the guard fails
        head = {state}
        frontier = {state}
        while frontier:
            nxt: set[int] = set()
            for st in frontier:
                if self.holds(s.cond, st):
                    nxt |= self.run(s.body, frozenset((st,)))
            nxt -= head
            head |= nxt
            frontier = nxt
        return frozenset(st for st in head if not self.holds(s.cond, st))

    def run(self, stmts: Iterable[Stmt], states: frozenset[int]) -> frozenset[int]:
        cur = states
        for s in stmts:
            out: set[int] = set()
            for st in cur:
                out |= self.step(s, st)
            cur = frozenset(out)
            if not cur:
                break
        return cur

    # compilation to closures over bit fields ------------------------------

    def _array(self, name: str) -> ArrayDecl:
        decl = self.space.array_decl(name)
        if decl is None:
            raise SpaceError(f"undeclared array {name!r}")
        return decl

    def _cell_keys(self, decl: ArrayDecl) -> list[tuple[str, int]]:
        return [(decl.name, i) for i in range(decl.length)]

    def _cells(self, decl: ArrayDecl) -> tuple[int, ...]:
        return tuple(self.space.field(k)[0] for k in self._cell_keys(decl))

    def field_of(self, e: Expr):
        """The field `e` reads when it is one plain read: a variable, or an
        array cell at a constant index (wrapped as `eval` wraps it).  None for
        any other expression.  `compile_expr` reads fields through this."""
        if isinstance(e, EVar):
            self.space.field(e.name)
            return e.name
        if isinstance(e, EArr) and isinstance(e.index, EConst):
            decl = self._array(e.name)
            return (e.name, (e.index.value & self.mask) % decl.length)
        return None

    def compile_expr(self, e: Expr) -> Callable[[int], int]:
        """`e` as a function of the state; agrees with `eval`."""
        key = self.field_of(e)
        if key is not None:
            off, width = self.space.field(key)
            m = (1 << width) - 1
            return lambda s: s >> off & m
        mask = self.mask
        if isinstance(e, EConst):
            v = e.value & mask
            return lambda s: v
        if isinstance(e, EArr):
            decl = self._array(e.name)
            idx, offs = self.compile_expr(e.index), self._cells(decl)
            n, m = decl.length, (1 << decl.width) - 1
            return lambda s: s >> offs[idx(s) % n] & m
        if isinstance(e, ECall):
            args = [self.compile_expr(a) for a in e.args]
            if e.fn in ("min", "max"):
                pick = min if e.fn == "min" else max
                return lambda s: pick([a(s) for a in args])
            vals, arg = tuple(v & mask for v in self._table(e)), args[0]
            n = len(vals)
            return lambda s: vals[arg(s) % n]
        a, b = self.compile_expr(e.left), self.compile_expr(e.right)
        if e.op == "+":
            return lambda s: (a(s) + b(s)) & mask
        if e.op == "-":
            return lambda s: (a(s) - b(s)) & mask
        if e.op == "*":
            return lambda s: (a(s) * b(s)) & mask

        def mod(s: int) -> int:
            x, y = a(s), b(s)
            return x % y if y else x
        return mod

    def reads(self, *nodes) -> set:
        """The footprint of expressions and conditions: every field they may
        read.  An array read at a computed index may read any cell."""
        out: set = set()
        todo = list(nodes)
        while todo:
            e = todo.pop()
            if isinstance(e, (EVar, EArr)):
                key = self.field_of(e)
                if key is not None:
                    out.add(key)
                else:
                    out.update(self._cell_keys(self._array(e.name)))
                    todo.append(e.index)
            elif isinstance(e, (EBin, BCmp)):
                todo += (e.left, e.right)
            elif isinstance(e, (ECall, BAndE, BOrE)):
                todo += e.args
            elif isinstance(e, BNotE):
                todo.append(e.arg)
        return out

    def values(self, e: Expr) -> list[int]:
        """The value of `e` in every state, in state order, evaluated once
        per value of its footprint."""
        return self.space.lift(self.reads(e), self.compile_expr(e))

    def compile_cond(self, b: BoolExpr) -> Callable[[int], bool]:
        """`b` as a predicate on states; agrees with `holds`."""
        if isinstance(b, BConst):
            v = b.value
            return lambda s: v
        if isinstance(b, BCmp):
            x, y = self.compile_expr(b.left), self.compile_expr(b.right)
            cmp = CMP_OPS[b.op]
            return lambda s: cmp(x(s), y(s))
        if isinstance(b, BNotE):
            inner = self.compile_cond(b.arg)
            return lambda s: not inner(s)
        parts = [self.compile_cond(a) for a in b.args]
        if isinstance(b, BAndE):
            return lambda s: all(p(s) for p in parts)
        return lambda s: any(p(s) for p in parts)

    def compile_action(self, s: Stmt) -> FnAction:
        """An assignment as an action; agrees with `step`.  Each carries its
        footprint: the fields its value and index read and the cells it may
        write (for havoc, its variable)."""
        if isinstance(s, SArrAssign):
            decl = self._array(s.name)
            idx, val = self.compile_expr(s.index), self.compile_expr(s.value)
            offs, n, m = self._cells(decl), decl.length, (1 << decl.width) - 1

            def store(st: int) -> int:
                off = offs[idx(st) % n]
                return (st & ~(m << off)) | ((val(st) & m) << off)
            # the cells a store may write are those a read of a[i] may read
            return FnAction(self.space, store, det=True, footprint=lambda: self.reads(
                EArr(s.name, s.index), s.value))
        off, width = self.space.field(s.var)
        m = (1 << width) - 1
        keep = ~(m << off)
        if isinstance(s, SHavoc):
            return FnAction(self.space, lambda st: tuple(
                (st & keep) | (v << off) for v in range(m + 1)),
                footprint=lambda: {s.var})
        val = self.compile_expr(s.expr)
        return FnAction(self.space, lambda st: (st & keep) | ((val(st) & m) << off),
                        det=True, footprint=lambda: self.reads(EVar(s.var), s.expr))

    # compilation to KAT --------------------------------------------------

    def compile_bool(self, b: BoolExpr):
        name = bool_str(b)
        if name not in self.tests:
            self.tests[name] = TestSem(self.space, pred=self.compile_cond(b),
                                       footprint=lambda: self.reads(b))
        return tprim(name)

    def _register_act(self, s: Stmt) -> KatTerm:
        name = stmt_str(s)
        if name not in self.acts:
            self.acts[name] = self.compile_action(s)
        return kact(name)

    def compile_stmt(self, s: Stmt) -> KatTerm:
        if isinstance(s, SSkip):
            return kseq()  # the unit
        if isinstance(s, (SAssign, SHavoc, SArrAssign)):
            return self._register_act(s)
        if isinstance(s, SAssume):
            return ktest(self.compile_bool(s.cond))
        if isinstance(s, SIf):
            e = self.compile_bool(s.cond)
            return kplus(kseq(ktest(e), self.compile_block(s.then)),
                         kseq(ktest(tnot(e)), self.compile_block(s.els)))
        e = self.compile_bool(s.cond)
        return kseq(kstar(kseq(ktest(e), self.compile_block(s.body))),
                    ktest(tnot(e)))

    def compile_block(self, stmts: Iterable[Stmt]) -> KatTerm:
        """Translate a program to a KAT term, binding its primitives here:
        assignments become actions with their exact relational semantics,
        conditions become tests with their exact state subsets."""
        return kseq(*[self.compile_stmt(s) for s in stmts])

    def kat_model(self) -> KatModel:
        """A model over this env's registries: it sees later primitives."""
        return KatModel(self.space, self.acts, self.tests)


def syntax_map(node, f: Callable):
    """`f` of `node` rebuilt from the images of its parts: the one structural
    map over expressions, conditions and statements, as `kleene_map` is over
    terms.  Names, operators and constants are kept as they are."""
    def part(v):
        if isinstance(v, tuple):
            return tuple(map(part, v))
        return syntax_map(v, f) if is_dataclass(v) else v
    return f(type(node)(*(part(getattr(node, k.name)) for k in fields(node))))


def subst_expr(e: Expr, var: str, repl: Expr) -> Expr:
    """`e` with each occurrence of the variable `var` replaced by `repl`."""
    return syntax_map(e, lambda n: repl if n == EVar(var) else n)
