"""The parser front end of every textual syntax, and the abstract KAT grammar.

`Cur` is the one cursor: whitespace and `#` comments (to the end of the line)
are skipped before every token.  `Kleene` is the one sum/seq/star grammar,

    term := seq ('+' seq)*
    seq  := star (';' star)*
    star := atom '*'*

so `;` binds tighter than `+` and postfix `*` tightest; each syntax supplies
its atoms and its three constructors.  `or_and` is the one boolean grammar,
`or := and (OR and)*` and `and := atom (AND atom)*`.  `parse_all` parses a
whole input and refuses trailing text.

Abstract KAT terms use the Kleene grammar with

    atom := '0' | '1' | ident | '!' atom | '(' term ')'

where identifiers are the tests and actions of the given `Alphabet` and `!`
applies to tests only: a test atom, or a parenthesized sum or sequence of
tests, read as a disjunction or conjunction.
"""

from __future__ import annotations

import re
from typing import Callable

from .terms import (KAT, Alphabet, KatTerm, KleeneOps, KTest, kleene_map,
                    TestTerm, kact, ktest, tand, tnot, tor, tprim, T0, T1)


class ParseError(Exception):
    def __init__(self, msg: str, pos: int = -1):
        super().__init__(msg if pos < 0 else f"{msg} (at offset {pos})")
        self.msg = msg
        self.pos = pos


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER = re.compile(r"\d+")
_BLOCK_MARK = re.compile(r"[#{}]")


class Cur:
    """A position in a text, read token by token."""

    def __init__(self, text: str, pos: int = 0):
        self.text = text
        self.i = pos

    def skip_ws(self):
        text, i, n = self.text, self.i, len(self.text)
        while i < n:
            ch = text[i]
            if ch == "#":
                nl = text.find("\n", i)
                i = n if nl < 0 else nl + 1
            elif ch.isspace():
                i += 1
            else:
                break
        self.i = i

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

    def match(self, pattern: re.Pattern, what: str) -> str:
        """The next token, which must match `pattern`."""
        self.skip_ws()
        m = pattern.match(self.text, self.i)
        if not m:
            got = self.text[self.i:self.i + 12]
            raise ParseError(f"expected {what}, found {got!r}", self.i)
        self.i = m.end()
        return m.group()

    def ident(self) -> str:
        return self.match(_IDENT, "an identifier")

    def number(self) -> int:
        return int(self.match(_NUMBER, "a number"))

    def at_end(self) -> bool:
        self.skip_ws()
        return self.i >= len(self.text)

    def braced(self) -> str:
        """The text between `{` and its matching `}`; braces inside comments
        do not count."""
        return self.braced_at()[1]

    def braced_at(self) -> tuple[int, str]:
        """`braced`, with the offset in the text where its body starts."""
        self.expect("{")
        text, start = self.text, self.i
        depth = 1
        m = _BLOCK_MARK.search(text, start)
        while m:
            pos = m.end()
            if m.group() == "#":
                pos = text.find("\n", pos)
                if pos < 0:
                    break
            elif m.group() == "{":
                depth += 1
            else:
                depth -= 1
                if depth == 0:
                    self.i = pos
                    return start, text[start:m.start()]
            m = _BLOCK_MARK.search(text, pos)
        raise ParseError("unclosed '{'", start)


def parse_all(text: str, parse: Callable[[Cur], object]):
    """`parse` applied to the whole of `text`."""
    c = Cur(text)
    try:
        t = parse(c)
    except RecursionError:
        raise ParseError("input nested too deeply") from None
    if not c.at_end():
        raise ParseError(f"trailing input {c.text[c.i:c.i + 16]!r}", c.i)
    return t


class Kleene:
    """The sum/seq/star grammar over `atom(cur)`, building terms with `ops`;
    a single operand of `+` or `;` stands for itself."""

    def __init__(self, atom: Callable[[Cur], object], ops: KleeneOps):
        self.atom = atom
        self.plus, self.seq, self.star = ops

    def term(self, c: Cur):
        parts = [self.product(c)]
        while c.eat("+"):
            parts.append(self.product(c))
        return parts[0] if len(parts) == 1 else self.plus(*parts)

    def product(self, c: Cur):
        parts = [self.postfix(c)]
        while c.eat(";"):
            parts.append(self.postfix(c))
        return parts[0] if len(parts) == 1 else self.seq(*parts)

    def postfix(self, c: Cur):
        t = self.atom(c)
        while c.eat("*"):
            t = self.star(t)
        return t


def or_and(c: Cur, atom: Callable[[Cur], object], ops: tuple[str, str],
           disj: Callable[[tuple], object], conj: Callable[[tuple], object]):
    """A disjunction of conjunctions of `atom`s, with `ops` = (OR, AND).
    `disj` and `conj` build from a tuple of two or more operands."""
    or_op, and_op = ops
    terms = []
    while True:
        parts = [atom(c)]
        while c.eat(and_op):
            parts.append(atom(c))
        terms.append(parts[0] if len(parts) == 1 else conj(tuple(parts)))
        if not c.eat(or_op):
            return terms[0] if len(terms) == 1 else disj(tuple(terms))


# --- abstract KAT terms ---------------------------------------------------------

NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")  # abstract names may carry primes


def kat_grammar(alphabet: Alphabet) -> Kleene:
    def atom(c: Cur) -> KatTerm:
        c.skip_ws()
        pos = c.i
        if c.eat("0"):
            return ktest(T0)
        if c.eat("1"):
            return ktest(T1)
        if c.eat("("):
            t = g.term(c)
            c.expect(")")
            return t
        if c.eat("!"):
            inner = atom(c)  # a test, or a parenthesized sum or sequence of them
            try:
                return ktest(tnot(test_of(inner)))
            except ParseError:
                raise ParseError("'!' applies to tests only", pos) from None
        name = c.match(NAME, "a test or an action")
        if name in alphabet.tests:
            return ktest(tprim(name))
        if name in alphabet.actions:
            return kact(name)
        raise ParseError(f"undeclared identifier {name!r}", pos)

    g = Kleene(atom, KAT)
    return g


def test_of(t: KatTerm, pos: int = 0) -> TestTerm:
    """A term built from tests by `+` and `;` as a test (or, and); `pos` is
    the offset reported if it is not one."""
    def refuse(_):
        raise ParseError("expected a test expression", pos)
    return kleene_map(t, lambda u: u.test if isinstance(u, KTest) else refuse(u),
                      KleeneOps(tor, tand, refuse))


def parse_term(text: str, alphabet: Alphabet) -> KatTerm:
    return parse_all(text, kat_grammar(alphabet).term)


def parse_test(text: str, alphabet: Alphabet) -> TestTerm:
    return test_of(parse_term(text, alphabet))
