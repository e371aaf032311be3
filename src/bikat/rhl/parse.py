"""Proof file syntax: one s-expression tree.

    (rule-name :key value ... (premise ...) ...)

Annotation values are either bare words/numbers or `{...}`-braced source
fragments, parsed by kind: bitests for :inv/:mid/:pre/:post/:q/:r/:first/
:second, an expression for :variant, a name for :hyp, integers for :lsplit/
:rsplit, and `hyp=name` for :side.  Comments run from `#` to end of line.
Every malformed input raises `ParseError`.
"""

from __future__ import annotations

import re
from typing import Callable

from ..kat.parse import Cur, ParseError, parse_all
from .proof import ProofTree

_BITEST_KEYS = {"inv", "mid", "pre", "post", "q", "r", "first", "second"}
_INT_KEYS = {"lsplit", "rsplit"}
_WORD = re.compile(r"[^\s(){}#]+")
_COMMENT = re.compile(r"#[^\n]*")


def parse_proof(
    text: str,
    parse_bitest: Callable[[str], object],
    parse_expr: Callable[[str], object],
) -> ProofTree:
    def node(c: Cur) -> ProofTree:
        c.expect("(")
        rule = c.match(_WORD, "a rule name")
        ann: dict = {}
        premises: list[ProofTree] = []
        while not c.eat(")"):
            if c.at_end():
                raise ParseError("unclosed '('", c.i)
            if c.peek() == "(":
                premises.append(node(c))
                continue
            pos = c.i
            word = c.match(_WORD, "an annotation or a premise")
            if not word.startswith(":"):
                raise ParseError(f"unexpected token {word!r} in proof node", pos)
            key = word[1:]
            if c.peek() == "{":
                value = _COMMENT.sub("", c.braced()).strip()
            else:
                value = c.match(_WORD, f"a value for :{key}")
            ann[key] = annotation(key, value, c.i)
        return ProofTree(rule, ann, tuple(premises))

    def annotation(key: str, value: str, pos: int):
        if key in _BITEST_KEYS:
            return parse_bitest(value)
        if key in _INT_KEYS:
            try:
                return int(value)
            except ValueError:
                raise ParseError(f":{key} needs an integer, found {value!r}", pos) from None
        if key == "variant":
            return parse_expr(value)
        if key == "side" and value.startswith("hyp="):
            return "hypothesis:" + value[4:]
        return value

    return parse_all(text, node)
