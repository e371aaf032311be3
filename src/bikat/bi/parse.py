"""Concrete syntax for abstract two-execution terms and for alignment steps.

Terms use the Kleene grammar of `kat.parse` with the atoms

    atom := <k] | [k> | <k|k> | bitest-name | 0 | 1 | !star | (term)

where `k` is an abstract KAT term over the underlying alphabet, parsed in
place, and `!` applies to (one-sided embeddings of) tests.

A script step is one line, `law-name @ path (key: value, ...)`, with path
`root`, `.` or dotted child indices.  Parameters are `key: value` or
`key = value`, or the flag `rev`; they are split at commas outside `( [ {`.
`<` and `>` do not nest, because in program-syntax terms they are
comparisons.  `#` starts a comment in a script file.
"""

from __future__ import annotations

import re

from ..kat.parse import NAME, Cur, Kleene, ParseError, kat_grammar, parse_all
from ..kat.terms import Alphabet, KTest
from .script import Step
from .terms import (B0, B1, BEmbL, BEmbR, BiKatTerm, BPrim, BTest, bembl,
                    bembr, bnot, bplus, bseq, bstar, btest, emb_pair, emb_test)


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
    raise ParseError("'!' applies to bitests only", pos)


def bikat_grammar(alph: BiAlphabet) -> Kleene:
    kat = kat_grammar(alph.kat)

    def atom(c: Cur) -> BiKatTerm:
        ch = c.peek()
        if c.eat("("):
            t = g.term(c)
            c.expect(")")
            return t
        if c.eat("!"):
            return btest(bnot(_as_bitest(g.postfix(c), c.i)))
        if c.eat("<"):
            left = kat.term(c)
            if c.eat("|"):
                right = kat.term(c)
                c.expect(">")
                return emb_pair(left, right)
            c.expect("]")
            return bembl(left)
        if c.eat("["):
            k = kat.term(c)
            c.expect(">")
            return bembr(k)
        if ch == "0" or ch == "1":
            c.i += 1
            return B0 if ch == "0" else B1
        name = c.match(NAME, "a term")
        if name in alph.bitests:
            return btest(BPrim(name))
        raise ParseError(f"undeclared bitest {name!r}", c.i)

    g = Kleene(atom, bplus, bseq, bstar)
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


def parse_script_lines(lines: list[str]) -> list[Step]:
    steps = []
    for ln in lines:
        ln = ln.split("#", 1)[0].strip()
        if ln:
            steps.append(parse_step(ln))
    return steps
