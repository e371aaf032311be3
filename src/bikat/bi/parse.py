"""Concrete syntax for abstract two-execution terms and for alignment steps.

Terms use the Kleene grammar of `kat.parse` with the atoms

    atom   := <k] | [k> | <k|k> | 0 | 1 | (term) | bitest
    bitest := name | [name] | L[t] | R[t] | true | false | !atom

where `k` is an abstract KAT term and `t` a KAT test over the underlying
alphabet, both parsed in place, `name` a declared bitest, and `!` applies to
(one-sided embeddings of) tests.  Bitest atoms combine with `&` and `|`
(`&` binding tighter), as the term printer writes them.

A script step is one line, `law-name @ path (key: value, ...)`, with path
`root`, `.` or dotted child indices.  Parameters are `key: value` or
`key = value`, or the flag `rev`; they are split at commas outside `( [ {`.
`<` and `>` do not nest, because in program-syntax terms they are
comparisons.  `#` starts a comment in a script file.
"""

from __future__ import annotations

import re

from ..kat.parse import (NAME, Cur, Kleene, ParseError, kat_grammar, or_and,
                         parse_all, test_of)
from ..kat.terms import Alphabet, KTest
from .script import Step
from .terms import (BIKAT, B0, B1, BEmbL, BEmbLTest, BEmbR, BEmbRTest,
                    BiKatTerm, BPrim, BTest, band, bembl, bembr, bnot, bor,
                    btest, emb_pair, emb_test)

_BRACKETED_NAME = re.compile(r"(" + NAME.pattern + r")\s*\]")


class BiAlphabet:
    """Underlying KAT alphabet plus declared primitive bitests."""

    def __init__(self, kat: Alphabet, bitests: tuple[str, ...] = ()):
        self.kat = kat
        self.bitests = tuple(sorted(set(bitests)))

    def __repr__(self):
        return f"BiAlphabet(kat={self.kat!r}, bitests={self.bitests!r})"


def _as_bitest(t: BiKatTerm, pos: int):
    if isinstance(t, BTest):
        return t.test
    if isinstance(t, BEmbL) and isinstance(t.arg, KTest):
        return emb_test("L", t.arg.test)
    if isinstance(t, BEmbR) and isinstance(t.arg, KTest):
        return emb_test("R", t.arg.test)
    raise ParseError("expected a bitest", pos)


def bikat_grammar(alph: BiAlphabet) -> Kleene:
    kat = kat_grammar(alph.kat)

    def atom(c: Cur) -> BiKatTerm:
        t = simple(c)
        if isinstance(t, BTest) and c.peek() in ("&", "|"):
            first = [t.test]

            def operand(c: Cur):
                return first.pop() if first else _as_bitest(simple(c), c.i)
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
            return btest(bnot(_as_bitest(simple(c), c.i)))
        if c.eat("<"):
            left = kat.term(c)
            if c.eat("|"):
                right = kat.term(c)
                c.expect(">")
                return emb_pair(left, right)
            c.expect("]")
            return bembl(left)
        if c.eat("["):
            m = _BRACKETED_NAME.match(c.text, c.i)
            if m and m.group(1) in alph.bitests:
                c.i = m.end()
                return btest(BPrim(m.group(1)))
            k = kat.term(c)
            c.expect(">")
            return bembr(k)
        if ch == "0" or ch == "1":
            c.i += 1
            return B0 if ch == "0" else B1
        if c.peek(2) in ("L[", "R["):
            c.i += 2
            pos = c.i
            test = test_of(kat.term(c), pos)
            c.expect("]")
            return btest(BEmbLTest(test) if ch == "L" else BEmbRTest(test))
        name = c.match(NAME, "a term")
        if name in alph.bitests:
            return btest(BPrim(name))
        if name in ("true", "false"):
            return B1 if name == "true" else B0
        raise ParseError(f"undeclared bitest {name!r}", c.i)

    g = Kleene(atom, BIKAT)
    return g


def parse_biterm(text: str, alph: BiAlphabet) -> BiKatTerm:
    return parse_all(text, bikat_grammar(alph).term)


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
