"""Concrete syntax for two-execution terms and for alignment steps.

`bikat_grammar` is the one BiKAT grammar, the Kleene grammar of `kat.parse`
with the atoms

    atom   := <k] | [k> | <k|k> | 0 | 1 | (term) | bitest
    bitest := compare | L[t] | R[t] | true | false | !atom

continued by `&` and `|` (`&` binding tighter) from a bitest atom, as the
term printer writes them; `!` applies to (one-sided embeddings of) tests.
A syntax gives the grammar three things: its KAT grammar, which parses `k`
in place; its test parser `side`, which parses `t` inside `L[..]` and
`R[..]`; and its own bitest atom `compare`.  Abstract terms (`parse_biterm`)
use the abstract KAT grammar, a KAT test for `t`, and a declared bitest
`name` or `[name]` for `compare`; program-syntax terms
(`problem.ImpTermParser`) use the C-like KAT grammar, a program condition
for `t`, and `[lexpr OP rexpr]` for `compare`.

A script step is one line, `law-name @ path (key: value, ...)`, with path
`root`, `.` or dotted child indices.  Parameters are `key: value` or
`key = value`, or the flag `rev`; they are split at commas outside `( [ {`.
`<` and `>` do not nest, because in program-syntax terms they are
comparisons.  `#` starts a comment in a script file.
"""

from __future__ import annotations

import re
from typing import Callable

from ..kat.parse import (NAME, Cur, Kleene, ParseError, kat_grammar, or_and,
                         parse_all, test_of)
from ..kat.terms import Alphabet, TestTerm
from .script import Step
from .terms import (BIKAT, B0, B1, BEmbLTest, BEmbRTest, BiKatTerm,
                    BiTestTerm, BPrim, BTest, band, bembl, bembr, bnot, bor,
                    btest, emb_pair)

_DECLARED = re.compile(r"\[(" + NAME.pattern + r")\s*\]|(" + NAME.pattern + r")")


class BiAlphabet:
    """Underlying KAT alphabet plus declared primitive bitests."""

    def __init__(self, kat: Alphabet, bitests: tuple[str, ...] = ()):
        self.kat = kat
        self.bitests = tuple(sorted(set(bitests)))

    def __repr__(self):
        return f"BiAlphabet(kat={self.kat!r}, bitests={self.bitests!r})"


def as_bitest(t: BiKatTerm, pos: int) -> BiTestTerm:
    """The bitest of a parsed term; `pos` is the offset reported if it is
    not one.  Embedded tests are kept in bitest form, so a test is a
    `BTest`."""
    if isinstance(t, BTest):
        return t.test
    raise ParseError("expected a bitest", pos)


def bikat_grammar(kat: Kleene, side: Callable[[Cur], TestTerm],
                  compare: Callable[[Cur], BiTestTerm | None]) -> Kleene:
    """The BiKAT grammar of a syntax with the KAT grammar `kat`, the test
    parser `side` (read up to the `]` of `L[..]` or `R[..]`), and the bitest
    atom `compare`, which returns None, having read nothing, where it does
    not apply."""

    def atom(c: Cur) -> BiKatTerm:
        t = simple(c)
        if isinstance(t, BTest) and c.peek() in ("&", "|"):
            first = [t.test]

            def operand(c: Cur):
                return first.pop() if first else as_bitest(simple(c), c.i)
            t = btest(or_and(c, operand, ("|", "&"),
                             lambda ts: bor(*ts), lambda ts: band(*ts)))
        return t

    def simple(c: Cur) -> BiKatTerm:
        ch = c.peek()
        if c.eat("("):
            t = g.term(c)
            c.expect(")")
            return t
        if c.eat("!"):
            return btest(bnot(as_bitest(simple(c), c.i)))
        if c.eat("<"):
            left = kat.term(c)
            if c.eat("|"):
                right = kat.term(c)
                c.expect(">")
                return emb_pair(left, right)
            c.expect("]")
            return bembl(left)
        if c.peek(2) in ("L[", "R["):
            c.i += 2
            test = side(c)
            c.expect("]")
            return btest(BEmbLTest(test) if ch == "L" else BEmbRTest(test))
        t = compare(c)
        if t is not None:
            return btest(t)
        if c.eat("["):
            k = kat.term(c)
            c.expect(">")
            return bembr(k)
        if ch == "0" or ch == "1":
            c.i += 1
            return B0 if ch == "0" else B1
        name = c.match(NAME, "a term")
        if name in ("true", "false"):
            return B1 if name == "true" else B0
        raise ParseError(f"undeclared bitest {name!r}", c.i)

    g = Kleene(atom, BIKAT)
    return g


def parse_biterm(text: str, alph: BiAlphabet) -> BiKatTerm:
    kat = kat_grammar(alph.kat)

    def side(c: Cur) -> TestTerm:
        pos = c.i
        return test_of(kat.term(c), pos)

    def compare(c: Cur) -> BiTestTerm | None:
        c.skip_ws()
        m = _DECLARED.match(c.text, c.i)
        name = m and (m.group(1) or m.group(2))
        if name not in alph.bitests:
            return None
        c.i = m.end()
        return BPrim(name)

    return parse_all(text, bikat_grammar(kat, side, compare).term)


# --- script steps ---------------------------------------------------------------

_STEP = re.compile(r"\s*([a-z-]+)\s*@\s*([0-9.]+|root|\.)\s*(?:\((.*)\))?\s*$")
_PARAM = re.compile(r"([A-Za-z0-9_-]+)\s*[:=]\s*(.*)$", re.S)


def parse_path(text: str) -> tuple[int, ...]:
    text = text.strip()
    if text in ("root", "."):
        return ()
    try:
        return tuple(int(p) for p in text.split("."))
    except ValueError:
        raise ParseError(f"bad path {text!r}") from None


def _split_step_params(text: str) -> dict:
    params: dict = {}
    depth = 0
    start = 0
    parts: list[str] = []
    for i, ch in enumerate(text):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    for p in parts:
        p = p.strip()
        if not p:
            continue
        if p == "rev":
            params["dir"] = "rev"
            continue
        m = _PARAM.match(p)
        if not m:
            raise ParseError(f"bad step parameter {p!r}")
        params[m.group(1)] = m.group(2).strip()
    return params


def parse_step(line: str) -> Step:
    m = _STEP.match(line)
    if not m:
        raise ParseError(f"bad script step {line!r}")
    law, path, params = m.groups()
    return Step(law, parse_path(path), _split_step_params(params or ""), raw=line.strip())


def parse_script_lines(text: str) -> list[Step]:
    """One step per line of `text`.  A bad step's `ParseError` carries the
    offset of the step in `text`."""
    steps, pos = [], 0
    for ln in text.splitlines(keepends=True):
        step = ln.split("#", 1)[0]
        if step.strip():
            try:
                steps.append(parse_step(step.strip()))
            except ParseError as e:
                at = pos + len(step) - len(step.lstrip()) + max(e.pos, 0)
                raise ParseError(e.msg, at) from None
        pos += len(ln)
    return steps
