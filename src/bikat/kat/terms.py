"""Term syntax for Kleene algebra with tests, and the term structure that
the two-execution algebra shares.

Tests and actions form two syntactic sorts.  Sums and sequences are n-ary
(flattened); `simplify` additionally sorts and dedupes sums so that terms
can be compared modulo associativity, commutativity and idempotence of +.

BiKAT (`bi.terms`) has the same operators over other atoms, so their
structure is written once, here.  Every term class of either algebra
extends the marker base of its operator (`Zero`, `One`, `Not`, `Or`, `And`
for tests and bitests; `Test`, `Plus`, `Seq`, `Star` for terms) or `Term`,
and code dispatches on those bases, never on the algebra:

- `nary` is the one flattening constructor behind `tor`, `tand`, `kplus`,
  `kseq` and their bitest and BiKAT twins; `complement` and `closure` build
  negations and stars;
- `term_key`, over the one table `RANK`, is the canonical sibling order,
  and `sort_dedupe` the one normal-form step of `simplify`, `simplify_test`
  and their BiKAT twins;
- `bool_map` and `kleene_map` are the one Boolean and the one Kleene
  homomorphism, given the images of atoms and the target's constructors.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Union


class KatError(Exception):
    pass


class CapExceeded(KatError):
    """A configured resource cap was exceeded; the operation refuses."""


# --- the shared structure -------------------------------------------------------

class Term:
    """Base of the term classes of both algebras.  Each class has at most one
    field: a name, a term, or a tuple of terms.  `const` is 0 or 1 for a
    constant of either sort, else None.

    A term's hash is computed once and kept in the term (`_hash`), so a
    lookup keyed by a term does not walk it again.  The kept hash is left
    out of the pickled and copied state: string hashes differ between
    processes."""

    const = None
    field_name = None  # the name of the one field, set by `term`

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((type(self), _field(self)))
        return h

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


def term(cls: type) -> type:
    """A term class: a frozen dataclass that keeps `Term`'s stored hash."""
    cls = dataclass(frozen=True)(cls)
    cls.__hash__ = Term.__hash__
    cls.field_name = next((f.name for f in fields(cls)), None)
    return cls


class Zero(Term):
    const = 0


class One(Term):
    const = 1


class Not(Term):
    """Negation (field `arg`)."""


class Or(Term):
    """n-ary disjunction (field `args`); 1 absorbs it."""

    absorbs = 1


class And(Term):
    """n-ary conjunction (field `args`); 0 absorbs it."""

    absorbs = 0


class Test(Term):
    """A test or bitest (field `test`) as a term; its constants are the
    term's."""

    @property
    def const(self):
        return self.test.const

    def __str__(self) -> str:
        return f"({self.test})" if isinstance(self.test, (Or, And)) else str(self.test)


class Plus(Term):
    """n-ary sum (field `args`); nothing absorbs it."""

    absorbs = None

    def __str__(self) -> str:
        return " + ".join(_paren(a, 0) for a in self.args)


class Seq(Term):
    """n-ary sequence (field `args`); 0 absorbs it."""

    absorbs = 0

    def __str__(self) -> str:
        return " ; ".join(_paren(a, 1) for a in self.args)


class Star(Term):
    """Kleene star (field `arg`)."""

    def __str__(self) -> str:
        return f"{_paren(self.arg, 2)}*"


def _paren(t: Term, level: int) -> str:
    # level: 0 inside +, 1 inside ;, 2 under *
    mine = 0 if isinstance(t, Plus) else 1 if isinstance(t, Seq) else 2
    s = str(t)
    return f"({s})" if mine < max(level, 1) or (level == 2 and mine < 2) else s


def nary(cls: type, unit: Term, ts: Iterable[Term]) -> Term:
    """The `cls` node over `ts`, flattened: the arguments of a `cls`
    argument are spliced in, copies of the constant `unit` dropped, and an
    absorbing constant (`cls.absorbs`) is the result.  No argument left
    gives `unit`, one gives itself."""
    flat: list[Term] = []
    for t in ts:
        if isinstance(t, cls):
            flat.extend(t.args)
        elif t.const is None:
            flat.append(t)
        elif t.const == cls.absorbs:
            return t
        elif t.const != unit.const:
            flat.append(t)
    if not flat:
        return unit
    return flat[0] if len(flat) == 1 else cls(tuple(flat))


def complement(cls: type, t: Term, zero: Term, one: Term) -> Term:
    """`cls(t)`, with the constants swapped and a double negation cancelled."""
    if t.const is not None:
        return (one, zero)[t.const]
    return t.arg if isinstance(t, cls) else cls(t)


def closure(cls: type, t: Term, one: Term) -> Term:
    """`cls(t)`; a constant gives `one`, and a star is its own closure."""
    if t.const is not None:
        return one
    return t if isinstance(t, cls) else cls(t)


def _field(t: Term):
    """The value of the one field of `t`: a name, a term or a tuple of
    terms; None for a constant."""
    name = t.field_name
    return None if name is None else getattr(t, name)


def children(t: Term) -> tuple[Term, ...]:
    """The argument terms of `t`: one for a star, none for an atom."""
    v = _field(t)
    if isinstance(v, tuple):
        return v
    return () if v is None or isinstance(v, str) else (v,)


def subterms(t: Term) -> Iterable[Term]:
    """`t` and every term inside it, embedded KAT terms and tests included."""
    todo = [t]
    while todo:
        u = todo.pop()
        yield u
        todo.extend(children(u))


# --- canonical order and normal form ---------------------------------------------

# sibling order in canonical forms: constants, atoms, then operators.  A
# class takes the rank of its marker base; the atoms have entries of their
# own, which `bi.terms` adds for its atoms when it is imported
RANK: dict[type, int] = {Zero: 0, One: 1, Not: 5, And: 6, Or: 7,
                         Test: 0, Star: 3, Seq: 4, Plus: 5}


@lru_cache(maxsize=None)
def _rank(cls: type) -> int:
    return next(RANK[c] for c in cls.__mro__ if c in RANK)


def term_key(t: Term):
    """The canonical sort key of a term of either algebra: its rank, then its
    name or the keys of its arguments."""
    r = _rank(type(t))
    v = _field(t)
    if v is None:
        return (r,)
    if isinstance(v, str):
        return (r, v)
    return (r, tuple(map(term_key, v)) if isinstance(v, tuple) else term_key(v))


def sort_dedupe(t: Term) -> Term:
    """`t`, with the arguments of a sum, disjunction or conjunction sorted by
    `term_key` and deduplicated: +, \\/ and /\\ are associative, commutative
    and idempotent."""
    if not isinstance(t, (Plus, Or, And)):
        return t
    uniq = sorted(set(t.args), key=term_key)
    return type(t)(tuple(uniq)) if len(uniq) > 1 else uniq[0]


# --- structural maps ----------------------------------------------------------

class BoolOps(NamedTuple):
    """The constants and connectives a Boolean map builds with; `join` and
    `meet` take any number of arguments."""

    zero: object
    one: object
    neg: Callable
    join: Callable
    meet: Callable


class KleeneOps(NamedTuple):
    """The operators a Kleene map builds with; `plus` and `seq` take any
    number of arguments."""

    plus: Callable
    seq: Callable
    star: Callable


def bool_map(t: Term, atom: Callable, ops: BoolOps):
    """The image of a test or bitest under the Boolean homomorphism that
    sends each atom `a` to `atom(a)`."""
    if isinstance(t, Not):
        return ops.neg(bool_map(t.arg, atom, ops))
    if isinstance(t, (Or, And)):
        args = [bool_map(a, atom, ops) for a in t.args]
        return ops.join(*args) if isinstance(t, Or) else ops.meet(*args)
    if t.const is None:
        return atom(t)
    return ops.one if t.const else ops.zero


def kleene_map(t: Term, leaf: Callable, ops: KleeneOps, reverse: bool = False):
    """The image of a KAT or BiKAT term under the Kleene homomorphism that
    sends each leaf `u` (a test, an action or an embedding) to `leaf(u)`;
    with `reverse`, sequences are taken right to left."""
    def go(u: Term):
        if not isinstance(u, (Plus, Seq, Star)):
            return leaf(u)
        if isinstance(u, Star):
            return ops.star(go(u.arg))
        if isinstance(u, Plus):
            return ops.plus(*map(go, u.args))
        return ops.seq(*map(go, reversed(u.args) if reverse else u.args))
    return go(t)


# --- test terms -------------------------------------------------------------

@term
class TZero(Zero):
    def __str__(self) -> str:
        return "0"


@term
class TOne(One):
    def __str__(self) -> str:
        return "1"


@term
class TPrim(Term):
    """A primitive test: an abstract identifier, printed bare, or a program
    condition, printed in brackets, `[x < 4]`, as a program-syntax term
    writes it, so that a printed term parses back."""

    name: str

    def __str__(self) -> str:
        return self.name if self.name.isidentifier() else f"[{self.name}]"


@term
class TNot(Not):
    arg: "TestTerm"

    def __str__(self) -> str:
        s = str(self.arg)
        return f"!({s})" if isinstance(self.arg, (TOr, TAnd)) else f"!{s}"


@term
class TOr(Or):
    args: tuple["TestTerm", ...]

    def __str__(self) -> str:
        return " + ".join(_paren_test(a, in_sum=True) for a in self.args)


@term
class TAnd(And):
    args: tuple["TestTerm", ...]

    def __str__(self) -> str:
        return " ; ".join(_paren_test(a) for a in self.args)


TestTerm = Union[TZero, TOne, TPrim, TNot, TOr, TAnd]

T0 = TZero()
T1 = TOne()


def _paren_test(t: TestTerm, in_sum: bool = False) -> str:
    if isinstance(t, TOr) or (in_sum and isinstance(t, TAnd)):
        return f"({t})"
    return str(t)


def tprim(name: str) -> TestTerm:
    return TPrim(name)


def tnot(t: TestTerm) -> TestTerm:
    return complement(TNot, t, T0, T1)


def tor(*ts: TestTerm) -> TestTerm:
    return nary(TOr, T0, ts)


def tand(*ts: TestTerm) -> TestTerm:
    return nary(TAnd, T1, ts)


TESTS = BoolOps(T0, T1, tnot, tor, tand)


# --- KAT terms ---------------------------------------------------------------

@term
class KTest(Test):
    test: TestTerm


@term
class KAct(Term):
    name: str

    def __str__(self) -> str:
        return self.name


@term
class KPlus(Plus):
    args: tuple["KatTerm", ...]


@term
class KSeq(Seq):
    args: tuple["KatTerm", ...]


@term
class KStar(Star):
    arg: "KatTerm"


KatTerm = Union[KTest, KAct, KPlus, KSeq, KStar]

K0 = KTest(T0)
K1 = KTest(T1)

RANK.update({TPrim: 2, KAct: 1})


def ktest(t: TestTerm) -> KatTerm:
    return KTest(t)


def kact(name: str) -> KatTerm:
    return KAct(name)


def kplus(*ts: KatTerm) -> KatTerm:
    return nary(KPlus, K0, ts)


def kseq(*ts: KatTerm) -> KatTerm:
    return nary(KSeq, K1, ts)


def kstar(t: KatTerm) -> KatTerm:
    return closure(KStar, t, K1)


KAT = KleeneOps(kplus, kseq, kstar)


# --- simplification ------------------------------------------------------------

_NORMAL_TESTS = BoolOps(T0, T1, tnot, lambda *ts: sort_dedupe(tor(*ts)),
                        lambda *ts: sort_dedupe(tand(*ts)))


def simplify_test(t: TestTerm) -> TestTerm:
    """Boolean units, double negation, flat sorted deduped /\\ and \\/."""
    return bool_map(t, lambda a: a, _NORMAL_TESTS)


@lru_cache(maxsize=200_000)
def simplify(t: KatTerm) -> KatTerm:
    """Canonical form: flattened, 0/1 units applied, sums sorted and deduped.

    Denotationally equal to the input in every KAT.
    """
    if isinstance(t, KTest):
        return KTest(simplify_test(t.test))
    if isinstance(t, KAct):
        return t
    if isinstance(t, KStar):
        return kstar(simplify(t.arg))
    if isinstance(t, KSeq):
        return kseq(*map(simplify, t.args))
    return sort_dedupe(kplus(*map(simplify, t.args)))


# --- alphabets ---------------------------------------------------------------

TEST_CAP = 10
ACTION_CAP = 16


@dataclass(frozen=True)
class Alphabet:
    """Declared primitive tests and actions, in canonical order."""

    tests: tuple[str, ...]
    actions: tuple[str, ...]

    def __post_init__(self):
        if len(self.tests) > TEST_CAP:
            raise CapExceeded(
                f"{len(self.tests)} primitive tests exceed the cap of {TEST_CAP} "
                f"(atom count doubles per test)")
        if len(self.actions) > ACTION_CAP:
            raise CapExceeded(
                f"{len(self.actions)} actions exceed the cap of {ACTION_CAP}")

    @staticmethod
    def make(tests: Iterable[str], actions: Iterable[str]) -> "Alphabet":
        return Alphabet(tuple(sorted(set(tests))), tuple(sorted(set(actions))))

    def union(self, other: "Alphabet") -> "Alphabet":
        return Alphabet.make(self.tests + other.tests, self.actions + other.actions)


def names(t: Term, cls: type) -> set[str]:
    """The names of the `cls` atoms inside `t`."""
    return {u.name for u in subterms(t) if isinstance(u, cls)}


def term_alphabet(t: Term) -> Alphabet:
    """The primitive tests and actions inside a KAT or BiKAT term."""
    return Alphabet.make(names(t, TPrim), names(t, KAct))


def terms_alphabet(ts: Iterable[KatTerm]) -> Alphabet:
    out = Alphabet.make((), ())
    for t in ts:
        out = out.union(term_alphabet(t))
    return out
