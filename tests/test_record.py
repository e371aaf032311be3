"""The kept verdict records, where the verdicts, counterexamples and reports
of the corpus and of the benchmark's mutants are pinned: every check finds,
at width 2, what `tests/record_w2.jsonl` says and, at each problem's declared
width (up to 32768 states a side), what `tests/record_declared.jsonl` says.
Both are written by `tools/record.py`; a change that alters a record on
purpose rewrites them, and a test that fails names the problem and the check
of the first record that changed.  The record's own problem list,
`problems()`, is the tests' list too: `TEXTS` maps each name to its text,
the mutants' applied."""

import functools
import importlib.util
import json
import re
from pathlib import Path

from bikat.problem import Cur, load_problem, parse_expr
from bikat.rhl.parse import parse_proof

ROOT = Path(__file__).resolve().parent.parent
DECLARED = ROOT / "tests" / "record_declared.jsonl"


def _recorder():
    spec = importlib.util.spec_from_file_location("tools_record", ROOT / "tools" / "record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RECORDER = _recorder()
TEXTS = {name: text for name, text, *_ in RECORDER.problems()}


def problem_at(name: str, width: int | None = None):
    """The problem `name` of `TEXTS` at `width` (None: its declared width)."""
    return load_problem(TEXTS[name], name, width_override=width)


@functools.lru_cache(maxsize=None)
def kept(path: Path) -> tuple[dict, ...]:
    """The records of a kept record file."""
    return tuple(json.loads(line) for line in path.read_text().splitlines())


def record(path: Path, name: str, check: str) -> dict:
    """The kept record of `check` on the problem `name`."""
    return next(r for r in kept(path) if (r["problem"], r["check"]) == (name, check))


def assert_expects_hold(name: str) -> None:
    """Every declared-width record of `name` with an `expect` has that
    verdict: a judgment's `holds`, a witness's `valid`, a script's or a
    proof's `accepted`; a refused check has none."""
    recs = [r for r in kept(DECLARED) if r["problem"] == name and "expect" in r]
    assert recs, f"{name} expects nothing"
    for r in recs:
        got = next((r[v] for v in ("holds", "valid", "accepted") if v in r), None)
        assert got == r["expect"], (name, r["check"], r.get("refused"))


def _assert_unchanged(path: Path, got: list[str]) -> None:
    kept_lines = path.read_text().splitlines()
    for old, new in zip(kept_lines, got):
        rec = json.loads(new)
        assert new == old, f"{rec['problem']} {rec['check']} changed"
    assert len(got) == len(kept_lines)


def test_width_2_record_is_unchanged():
    _assert_unchanged(RECORDER.RECORD, RECORDER.records(2))


def test_declared_record_is_unchanged():
    _assert_unchanged(DECLARED, RECORDER.records(None))


def test_record_covers_every_problem_and_expectation():
    recs = kept(RECORDER.RECORD)
    problems = list(RECORDER.problems())
    assert len(problems) == 13  # eight corpus files and five mutants
    for name, text, proof, _ in problems:
        # the checks of the problem's table, in its order, then its pairs
        prob = problem_at(name, 2)
        tree = None if proof is None else parse_proof(
            proof, prob.parser.bitest, lambda s: parse_expr(Cur(s)))
        checks = [r["check"] for r in recs if r["problem"] == name]
        assert checks == [*prob.checks(tree), "pairs_pre", "pairs_post"]
    expects = sum(len(exp) if exp else len(re.findall(r"^\s*expect\s", text, re.M))
                  for _, text, _, exp in problems)
    assert sum("expect" in r for r in recs) == expects == 41
    assert sum("expect" in r for r in kept(DECLARED)) == expects


def test_printed_script_terms_parse_back():
    # every script goal, and every term a script replay reaches, its final
    # term among them, prints as text that the problem's parser reads back
    # to an equal term: program conditions inside embedded KAT terms print
    # in brackets
    from bikat.bi.script import check_script

    failing = 0
    for name in TEXTS:
        prob = problem_at(name, 2)
        if prob.script_goal is None:
            continue
        res = check_script(prob.script(), prob.script_context())
        failing += not res.accepted
        for t in [prob.script_goal, res.final, *(step.after for step in res.trace)]:
            assert prob.parser.bikat(str(t)) == t, (name, str(t))
    assert failing == 3
