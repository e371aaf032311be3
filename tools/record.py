"""The verdict record: what every check of the corpus and of the benchmark's
mutants finds, one JSON line a record.

Run from anywhere; the checkout's `src/` is imported:

    python3 tools/record.py              # rewrite tests/record_w2.jsonl
    python3 tools/record.py --declared   # the same checks at declared width,
                                         # to standard output
    python3 tools/record.py --declared > tests/record_declared.jsonl

The problems are the corpus files, in name order, then the mutants of
`perfbench/workloads.py` (read, never changed), in its order.  Per problem
the checks are those of `Problem.checks`, in the order of its table
(`bikat.problem.CHECKS`): the six judgment kinds on its programs, pre and
post; if it has a script goal, adequacy of the goal and the script's replay;
if it has a witness, forward and backward witness validity; if it has a
proof, the proof; and last the pair enumeration of its pre and of its post.
A record names the problem and the check, and the verdict that an
`expect` line of the file or the mutant's table expects of it, if any.  It
holds what the check found: an oracle's verdict, routes, notes and
counterexample (condition, states and text); a witness check's conditions,
counterexamples and oracle; a script's acceptance, error, failed step,
provisos, final term and steps; a proof's acceptance, node reports and root
oracle; a pair relation's count and SHA-256 hash of the pairs of
`PairSpec.pairs()`, in order, and whether `PairSpec.one_partner` reads it as
columns; or the refusal that stopped the check, its class and message.

`tests/test_record.py` recomputes both records and compares each with its
kept file line by line, in tier-1.  The tests read the expected verdicts and
the counterexamples of the corpus and the mutants from the records, not from
copies, and `problems()` is their list of problems and texts.  A change that alters a record on purpose rewrites the files, and
their diff shows what changed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "tests" / "record_w2.jsonl"
CORPUS = ROOT / "src" / "bikat" / "corpus"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def problems():
    """(name, problem text, proof text or None, {check: expected verdict})
    for each corpus file, then each mutant.  A corpus file expects what its
    `expect` lines say; its kind stands for `holds`."""
    for path in sorted(CORPUS.glob("*.prob")):
        proof = path.with_suffix(".proof")
        yield (path.stem, path.read_text(),
               proof.read_text() if proof.is_file() else None, None)
    wl = _workloads()
    for m in wl.MUTANTS:
        path = CORPUS / f"{m.source}.prob"
        proof = path.with_suffix(".proof")
        yield (f"{m.source}~mutant", wl.apply_mutant(path.read_text(), m),
               proof.read_text() if proof.is_file() else None,
               {c.kind: c.expected for c in m.checks})


def _judge(res) -> dict:
    cex = res.counterexample
    return {"holds": res.holds, "routes": res.routes, "notes": res.notes,
            "counterexample": None if cex is None else _cex(cex)}


def _cex(cex) -> list:
    return [cex.condition, list(cex.states), cex.rendered]


def _witness(rep) -> dict:
    return {"valid": rep.valid, "conditions": rep.conditions,
            "counterexamples": {k: _cex(c) for k, c in rep.counterexamples.items()},
            "oracle": None if rep.oracle is None else _judge(rep.oracle)}


def _script(res) -> dict:
    return {"accepted": res.accepted, "error": res.error,
            "failed_step": res.failed_step, "provisos": res.provisos,
            "final": str(res.final), "steps": [str(t.after) for t in res.trace]}


def _proof(res) -> dict:
    return {"accepted": res.accepted,
            "reports": [[list(r.path), r.rule, r.judgment, r.ok, r.message]
                        for r in res.reports],
            "root": None if res.root_oracle is None else _judge(res.root_oracle)}


def _fields(res) -> dict:
    """The record fields of a check's result, chosen by its type."""
    return {"JudgeResult": _judge, "WitnessReport": _witness, "ScriptResult": _script,
            "ProofResult": _proof}[type(res).__name__](res)


def _pairs(spec) -> dict:
    """The pairs of `spec.pairs()`, counted and hashed in order as `rows`
    streams them (no list of pairs is built), and whether `one_partner`
    reads the relation as columns."""
    digest, count = hashlib.sha256(), 0
    for a, row in spec.rows():
        digest.update(f"{a}:{','.join(map(str, row))};".encode())
        count += len(row)
    return {"pairs": count, "sha256": digest.hexdigest(),
            "columns": spec.one_partner() is not None}


def _checks(prob, tree):
    """(check name, a function giving its record fields), in record order:
    the checks of `prob.checks(tree)`, then the pair enumerations."""
    from bikat.judge.core import PairSpec

    for name, run in prob.checks(tree).items():
        yield name, lambda run=run: _fields(run())
    for side in ("pre", "post"):  # a fresh spec: enumerated from nothing
        yield f"pairs_{side}", lambda t=getattr(prob, side): _pairs(PairSpec(prob.bm, t))


def records(width: int | None = 2) -> list[str]:
    """The record at `width` (None: each problem's declared width), one JSON
    text a record."""
    from bikat.judge.core import EnumRefused
    from bikat.judge.oracles import RouteDisagreement
    from bikat.kat.terms import CapExceeded
    from bikat.models.kmodel import ModelError
    from bikat.models.space import SpaceError
    from bikat.problem import Cur, load_problem, parse_expr
    from bikat.rhl.parse import parse_proof

    refusals = (RouteDisagreement, EnumRefused, CapExceeded, SpaceError, ModelError)
    out = []
    for name, text, proof, expects in problems():
        prob = load_problem(text, name, width_override=width)
        tree = None if proof is None else parse_proof(
            proof, prob.parser.bitest, lambda s: parse_expr(Cur(s)))
        if expects is None:
            expects = dict.fromkeys(prob.expects, True)
        expects = {prob.check_of(check): v for check, v in expects.items()}
        for check, run in _checks(prob, tree):
            rec = {"problem": name, "check": check}
            if check in expects:
                rec["expect"] = expects[check]
            try:
                rec.update(run())
            except refusals as e:
                rec["refused"] = [type(e).__name__, str(e)]
            out.append(json.dumps(rec))
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--declared", action="store_true",
                    help="check at declared width and print, not write, the record")
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    if args.declared:
        print("\n".join(records(None)))
    else:
        RECORD.write_text("\n".join(records()) + "\n")


if __name__ == "__main__":
    main()
