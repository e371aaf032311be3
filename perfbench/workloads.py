"""Workloads of the time-to-verdict benchmark, with a known answer for every check.

A workload is a list of cases.  A case is one problem text (a corpus file,
possibly widened or mutated), an optional proof text, and the checks to run on
it in order, each with the verdict it must give.  Positive cases take their
checks from the file's own `expect` lines.  Mutants carry their expected
verdicts and a one-line reason for each.

The seed picks the table of loop-tiling's `ftable f seed N` line.  No seed
changes a verdict: loop-tiling holds for every table, and its mutant stores
`f(k) + 1` into a 1-bit cell, which differs from `f(k)` for every table.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

CORPUS = Path("src") / "bikat" / "corpus"

WORKLOADS = ("judge-large", "align-proof", "refute")

# check kind -> end-to-end metric its time is summed into
VERDICT_METRIC = {
    "holds": "judgment_s",
    "adequate": "adequacy_s",
    "proof_accepted": "proof_s",
    "script_accepted": None,
}


class WorkloadError(Exception):
    """The workload could not be built from the corpus as found."""


@dataclass(frozen=True)
class Check:
    kind: str  # holds | script_accepted | adequate | proof_accepted
    expected: bool
    reason: str = "expect line of the corpus file"


@dataclass(frozen=True)
class Case:
    name: str
    text: str
    proof: str | None
    checks: tuple[Check, ...]
    width_override: int | None = None


@dataclass(frozen=True)
class Mutant:
    source: str  # corpus file stem
    old: str  # exact text replaced; must occur once in the source
    new: str
    checks: tuple[Check, ...]


MUTANTS = (
    Mutant(
        "loop-tiling",
        "A[2 * i + j] := f(2 * i + j);",
        "A[2 * i + j] := f(2 * i + j) + 1;",
        (Check("holds", False,
               "A cells are 1 bit wide, so f(k) + 1 never equals f(k) there"),
         Check("script_accepted", False,
               "the start term has the mutated store, the goal the original one"),
         Check("adequate", False,
               "the goal aligns the original right store, not the mutated one")),
    ),
    Mutant(
        "factorial-ni",
        "pre  { [n == n] }",
        "pre  { [i == i] }",
        (Check("holds", False,
               "runs that agree on i but not on n compute different factorials"),
         Check("script_accepted", True,
               "the script rewrites the programs and never reads the pre"),
         Check("adequate", True,
               "the goal equals the program pair, so it covers every run pair"),
         Check("proof_accepted", False,
               "the proof's rconseq needs pre [n == n], which [i == i] does not give")),
    ),
    Mutant(
        "double-square",
        "y := 2 * y;",
        "y := 2 * y + 1;",
        (Check("holds", False,
               "the right y ends odd and the left y even"),
         Check("script_accepted", False,
               "the goal still ends with the original right store"),
         Check("adequate", False,
               "the goal aligns the original right store, not the mutated one")),
    ),
    Mutant(
        "simple-sum",
        "right { i := 1;",
        "right { i := 2;",
        (Check("holds", False,
               "the right sum skips i = 1, so x differs whenever N >= 1"),
         Check("script_accepted", False,
               "the goal still starts the right program with i := 1"),
         Check("adequate", False,
               "the goal aligns the original right start, not the mutated one")),
    ),
    Mutant(
        "array-insert",
        "post { [i == i] }",
        "post { [i == i] & [h == h] }",
        (Check("holds", False,
               "the pre does not relate h, and both runs keep their own h"),
         Check("script_accepted", True,
               "the script rewrites the programs and never reads the post"),
         Check("adequate", True,
               "adequacy compares run pairs and never reads the post"),
         Check("proof_accepted", False,
               "the proof's last leaf does not establish [h == h]")),
    ),
)

_EXPECT = re.compile(r"^\s*expect\s+(\w+)\s*;", re.M)
_FTABLE_SEED = re.compile(r"^(\s*ftable\s+f\s+seed\s+)\d+(\s*;)", re.M)


def _read(root: Path, stem: str) -> tuple[str, str | None]:
    prob = root / CORPUS / f"{stem}.prob"
    if not prob.is_file():
        raise WorkloadError(f"missing corpus file {prob}")
    proof = prob.with_suffix(".proof")
    return prob.read_text(), proof.read_text() if proof.is_file() else None


def _expect_checks(text: str) -> tuple[Check, ...]:
    kinds = _EXPECT.findall(text)
    unknown = [k for k in kinds if k not in VERDICT_METRIC]
    if unknown:
        raise WorkloadError(f"unknown expect lines {unknown}")
    return tuple(Check(k, True) for k in kinds)


def _seed_ftable(text: str, table_seed: int) -> str:
    seeded, n = _FTABLE_SEED.subn(rf"\g<1>{table_seed}\g<2>", text)
    if n != 1:
        raise WorkloadError("loop-tiling has no single 'ftable f seed N;' line")
    return seeded


def apply_mutant(text: str, m: Mutant) -> str:
    """The source with the mutant's edit; refuses an edit that does not
    change the file exactly once."""
    if text.count(m.old) != 1:
        raise WorkloadError(
            f"mutant of {m.source}: {m.old!r} occurs {text.count(m.old)} times, not once")
    mutated = text.replace(m.old, m.new)
    if mutated == text:
        raise WorkloadError(f"mutant of {m.source} leaves the file unchanged")
    return mutated


def table_seed(seed: int) -> int:
    return random.Random(seed).randrange(1 << 16)


def build(name: str, root: Path, seed: int) -> list[Case]:
    """The cases of one workload, in corpus order; passes shuffle them."""
    tseed = table_seed(seed)

    def source(stem: str) -> tuple[str, str | None]:
        text, proof = _read(root, stem)
        if stem == "loop-tiling":
            text = _seed_ftable(text, tseed)
        return text, proof

    if name == "judge-large":
        cases = []
        for stem, width in (("loop-tiling", None), ("double-square", 5)):
            text, _ = source(stem)
            holds = tuple(c for c in _expect_checks(text) if c.kind == "holds")
            if not holds:
                raise WorkloadError(f"{stem} has no 'expect holds;' line")
            cases.append(Case(f"{stem}@w{width}" if width else stem, text,
                              None, holds, width))
        return cases
    if name == "align-proof":
        cases = []
        for stem in ("factorial-ni", "simple-sum", "array-insert", "double-square"):
            text, proof = source(stem)
            checks = _expect_checks(text)
            if any(c.kind == "proof_accepted" for c in checks) and proof is None:
                raise WorkloadError(f"{stem} expects a proof but has no .proof file")
            cases.append(Case(stem, text, proof, checks))
        return cases
    if name == "refute":
        cases = []
        for m in MUTANTS:
            text, proof = source(m.source)
            if any(c.kind == "proof_accepted" for c in m.checks) and proof is None:
                raise WorkloadError(f"{m.source} mutant checks a proof it lacks")
            cases.append(Case(f"{m.source}~mutant", apply_mutant(text, m),
                              proof, m.checks))
        return cases
    raise WorkloadError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
