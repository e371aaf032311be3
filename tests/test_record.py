"""The kept verdict record: at width 2, every check of the corpus and of the
benchmark's mutants finds what `tests/record_w2.jsonl` says.  The record is
written by `tools/record.py`; a change that alters a record on purpose
rewrites it."""

import importlib.util
import json
import re
from pathlib import Path

from bikat.problem import Cur, load_problem, parse_expr
from bikat.rhl.parse import parse_proof

ROOT = Path(__file__).resolve().parent.parent


def _recorder():
    spec = importlib.util.spec_from_file_location("tools_record", ROOT / "tools" / "record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RECORDER = _recorder()


def test_width_2_record_is_unchanged():
    kept = RECORDER.RECORD.read_text().splitlines()
    got = RECORDER.records(2)
    for i, (old, new) in enumerate(zip(kept, got), 1):
        assert new == old, f"record line {i} changed"
    assert len(got) == len(kept)


def test_record_covers_every_problem_and_expectation():
    recs = [json.loads(line) for line in RECORDER.RECORD.read_text().splitlines()]
    problems = list(RECORDER.problems())
    assert len(problems) == 13  # eight corpus files and five mutants
    for name, text, proof, _ in problems:
        # the checks of the problem's table, in its order, then its pairs
        prob = load_problem(text, name, width_override=2)
        tree = None if proof is None else parse_proof(
            proof, prob.parser.bitest, lambda s: parse_expr(Cur(s)))
        checks = [r["check"] for r in recs if r["problem"] == name]
        assert checks == [*prob.checks(tree), "pairs_pre", "pairs_post"]
    expects = sum(len(exp) if exp else len(re.findall(r"^\s*expect\s", text, re.M))
                  for _, text, _, exp in problems)
    assert sum("expect" in r for r in recs) == expects == 41


def test_printed_script_terms_parse_back():
    # every script goal, and every term a script replay reaches, its final
    # term among them, prints as text that the problem's parser reads back
    # to an equal term: program conditions inside embedded KAT terms print
    # in brackets
    from bikat.bi.script import check_script

    failing = 0
    for name, text, _, _ in RECORDER.problems():
        prob = load_problem(text, name, width_override=2)
        if prob.script_goal is None:
            continue
        res = check_script(prob.script(), prob.script_context())
        failing += not res.accepted
        for t in [prob.script_goal, res.final, *(step.after for step in res.trace)]:
            assert prob.parser.bikat(str(t)) == t, (name, str(t))
    assert failing == 3
