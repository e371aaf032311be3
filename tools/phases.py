"""Per-phase times of the perfbench workloads, for before-and-after records.

Run from the root of a checkout (its `src/` is imported):

    python3 tools/phases.py --workload judge-large --passes 5 --seed 1

Each pass loads every case of the workload afresh and runs its checks
through `Problem.checks`, under a collector of `bikat.stats`.  The package
charges the time inside a check, as exclusive time, so nested phases count
once, to these phases:

- tables: successor, predecessor and test tables, expression value lists
  and the key columns of pair predicates, as each is built;
- rows: pair-relation enumeration (`PairSpec`'s columns as they are built,
  `pairs`, and the rows that the oracles' chunked iterators pull) and the
  image fills of each chunk's rows (`_PreRows.fill`, the class walk's);
- walks: per-state images and ends (`kmodel.image`, `kat_post`/`kat_pre`,
  a framed `PostMap`'s ends and kept images) and the pair-state walks of
  witness terms;
- check: the rest of the verdict's time: the oracles' own loops, with each
  row's union D and class keys, script replay and the proof checker.  A
  row read outside the chunked iterators, by `partners_left` for the
  partner sets of the equational routes or by the proof checker's side
  conditions, is built in its reader's phase.

The time of `load_problem` and `parse_proof` is the `load` field, kept
outside the four phases and their sum `verdicts`, so a change to the parser
front end shows its cost next to the verdict phases; a table built while
loading counts in its own phase.  The last line of standard output is a JSON
object: the median over passes of each phase's seconds per pass and of the
pass total, the most wrong verdicts of any pass, and `by_check`, the median
seconds of each check, keyed "<case> <check>":

    python3 tools/phases.py --workload refute --passes 5
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()


def run_pass(cases) -> dict:
    from bikat import problem, stats
    from bikat.rhl import parse as rparse
    wrong = 0
    by_check: dict[str, float] = {}
    start = perf_counter()
    with stats.collect() as got:
        for case in cases:
            with stats.phase("load"):
                prob = problem.load_problem(case.text, case.name,
                                            width_override=case.width_override)
                tree = None
                if case.proof is not None:
                    tree = rparse.parse_proof(case.proof, prob.parser.bitest,
                                              lambda s: problem.parse_expr(problem.Cur(s)))
            for check in case.checks:
                began = perf_counter()
                with stats.phase("check"):
                    ok = problem.passed(prob.checks(tree)[prob.check_of(check.kind)]())
                key = f"{case.name} {check.kind}"
                by_check[key] = by_check.get(key, 0.0) + perf_counter() - began
                wrong += ok != check.expected
    out = {p: got.seconds.get(p, 0.0) for p in ("tables", "rows", "walks", "check")}
    out["verdicts"] = sum(out.values())
    out["load"] = got.seconds.get("load", 0.0)
    out["pass"] = perf_counter() - start
    out["wrong"] = wrong
    out["by_check"] = by_check
    return out


def positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{n} is not a positive number of passes")
    return n


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--passes", type=positive, default=5)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    cases = workloads.build(args.workload, ROOT, args.seed)
    passes = []
    for _ in range(args.passes):
        gc.collect()
        passes.append(run_pass(cases))
    checks = [p.pop("by_check") for p in passes]
    result = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    result["wrong"] = max(p["wrong"] for p in passes)
    result["passes"] = args.passes
    out = {"workload": args.workload, **{k: round(v, 4) for k, v in result.items()}}
    out["by_check"] = {k: round(statistics.median(c[k] for c in checks), 4)
                       for k in checks[0]}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
