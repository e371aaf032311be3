"""Per-phase times of the perfbench workloads, for before-and-after records.

Run from the root of a checkout (its `src/` is imported):

    python3 tools/phases.py --workload judge-large --passes 5 --seed 1

Each pass loads every case of the workload afresh and runs its checks
through `Problem.checks`.  The time inside a check is split by exclusive
time, so nested calls are counted once, into four phases:

- tables: successor, predecessor and test tables, expression value lists
  and the key columns of pair predicates (`ActionSem.succ_table`/
  `pred_table`, `TestSem.table`, `ImpEnv.values`, `core._key_column`); a
  deterministic action's table is `StateSpace.moved`, whose footprint bits
  are the packed states masked (`StateSpace.packed` of `int`); an action's
  predecessors are built a state at a time, on first use (`kmodel._Preds`);
- rows: pair-relation enumeration (`PairSpec.rows`/`pairs`/`partners_left`,
  the columns of `PairSpec.one_partner`, ranges for the identity relation,
  the oracles' chunked iterators `_row_chunks` and `_column_chunks`, which
  slices those columns) and the oracles' row reader `_PreRows`: its fills,
  a row's union D and its right class keys, done once per distinct shared
  row of a check;
- walks: image computation (`kmodel.image`, through which every `PostMap`
  image is computed, a framed term's images lifted from its projections,
  the per-state ends, sliced from a framed term's end column for a range of
  states, the build of that column by the same `StateSpace.moved`, and the
  images made from known ends, `PostMap.ends`/`_framed_ends`/`_column`/
  `keep_ends`, and the pair-state walks, which step frontiers of rows:
  `witness.term_tags`, the one class walk of adequacy and witness validity,
  and `witness._pair_images`, which decodes per-source images (in
  validity, of the one failing source a counterexample names);
  `kat_post`/`kat_pre` are timed too, but only the zero-hypothesis check of
  script replay calls them);
- check: the rest of the verdict's time: the oracles' own loops, script
  replay and the proof checker.

The time of `load_problem` and `parse_proof` is the `load` field, kept
outside the four phases and their sum `verdicts`, so a change to the parser
front end shows its cost next to the verdict phases.  As the phases, it is
exclusive: a wrapped function called while loading counts in its own phase.

The wrappers are installed from outside; their cost lands in the phase they
wrap, so the numbers compare runs of this script, not runs of perfbench.  The
last line of standard output is a JSON object: the median over passes of each
phase's seconds per pass, and of the pass total, and `by_check`, the median
seconds of each check, keyed "<case> <check>":

    python3 tools/phases.py --workload refute --passes 5
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()


class Phases:
    def __init__(self):
        self.clock = time.perf_counter
        self.stack: list[list] = []  # [phase, start, child seconds]
        self.totals: dict[str, float] = {}

    def enter(self, phase: str) -> list:
        frame = [phase, self.clock(), 0.0]
        self.stack.append(frame)
        return frame

    def leave(self, frame: list) -> None:
        dur = self.clock() - frame[1]
        self.stack.pop()
        if self.stack:
            self.stack[-1][2] += dur
        self.totals[frame[0]] = self.totals.get(frame[0], 0.0) + dur - frame[2]

    def timed(self, phase: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.enter(phase)
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave(frame)
        return wrapper

    def timed_iter(self, phase: str, fn):
        """A generator function whose every step is timed in `phase`."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                frame = self.enter(phase)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.leave(frame)
                yield item
        return wrapper

    def timed_rows(self, fn):
        """`PairSpec.rows`: inside a chunked row iterator the rows are taken
        lazily and timed with it; any other caller gets them materialized in
        the rows phase, as every such caller reads all of them."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.enter("rows")
            try:
                got = fn(*args, **kwargs)
                if len(self.stack) < 2 or self.stack[-2][0] != "rows":
                    if not isinstance(got, dict):
                        got = iter(list(got))
                return got
            finally:
                self.leave(frame)
        return wrapper


def install(ph: Phases) -> None:
    import bikat
    from bikat.judge import core, oracles, witness
    from bikat.models import imp, kmodel

    for cls in (kmodel.ActionSem, kmodel.FnAction):
        for attr in ("succ_table", "pred_table"):
            if attr in vars(cls):
                setattr(cls, attr, ph.timed("tables", vars(cls)[attr]))
    kmodel._Preds.__missing__ = ph.timed("tables", kmodel._Preds.__missing__)
    kmodel.TestSem.table = ph.timed("tables", kmodel.TestSem.table)
    imp.ImpEnv.values = ph.timed("tables", imp.ImpEnv.values)

    for attr in ("ends", "_framed_ends", "_column", "keep_ends"):
        setattr(core.PostMap, attr, ph.timed("walks", getattr(core.PostMap, attr)))
    core.PairSpec.rows = ph.timed_rows(core.PairSpec.rows)
    for attr in ("pairs", "partners_left", "one_partner"):
        setattr(core.PairSpec, attr, ph.timed("rows", getattr(core.PairSpec, attr)))
    for attr in ("fill", "fill_right", "union", "keys"):
        setattr(oracles._PreRows, attr, ph.timed("rows", getattr(oracles._PreRows, attr)))
    chunks = ph.timed_iter("rows", oracles._row_chunks)
    oracles._row_chunks = chunks
    oracles._column_chunks = ph.timed_iter("rows", oracles._column_chunks)

    # module functions, replaced under every name a bikat module holds them by
    funcs = {f: ph.timed(phase, f) for phase, fs in (
        ("tables", (core._key_column,)),
        ("walks", (kmodel.image, kmodel.kat_post, kmodel.kat_pre,
                   witness._pair_images, witness.term_tags))) for f in fs}
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith(bikat.__name__):
            for name, value in list(vars(mod).items()):
                if callable(value) and value in funcs:
                    setattr(mod, name, funcs[value])


def run_pass(ph: Phases, cases) -> dict[str, float]:
    from bikat import problem
    from bikat.rhl import parse as rparse
    ph.totals = {}
    wrong = 0
    by_check: dict[str, float] = {}
    start = ph.clock()
    for case in cases:
        frame = ph.enter("load")
        try:
            prob = problem.load_problem(case.text, case.name,
                                        width_override=case.width_override)
            tree = None
            if case.proof is not None:
                tree = rparse.parse_proof(case.proof, prob.parser.bitest,
                                          lambda s: problem.parse_expr(problem.Cur(s)))
        finally:
            ph.leave(frame)
        for check in case.checks:
            frame = ph.enter("check")
            try:
                got = problem.passed(prob.checks(tree)[prob.check_of(check.kind)]())
            finally:
                ph.leave(frame)
            key = f"{case.name} {check.kind}"
            by_check[key] = by_check.get(key, 0.0) + ph.clock() - frame[1]
            wrong += got != check.expected
    out = {p: ph.totals.get(p, 0.0) for p in ("tables", "rows", "walks", "check")}
    out["verdicts"] = sum(out.values())
    out["load"] = ph.totals.get("load", 0.0)
    out["pass"] = ph.clock() - start
    out["wrong"] = wrong
    out["by_check"] = by_check
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--passes", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    cases = workloads.build(args.workload, ROOT, args.seed)
    ph = Phases()
    install(ph)
    passes = []
    for _ in range(args.passes):
        gc.collect()
        passes.append(run_pass(ph, cases))
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
