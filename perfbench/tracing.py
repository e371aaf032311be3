"""Spans and counts around the public calls of each bikat layer.

The tracer wraps functions and methods from outside the package, by
replacing module and class attributes, and restores them on `uninstall`.
Nothing under `src/` knows about it.  Three kinds of wrapper:

- span: timed; every call is kept as a span (trace id, span id, parent
  span id, name, start, end, self time);
- timed: timed like a span and counted in its parent's child time, but only
  totals are kept, because these calls run tens of thousands of times a pass;
- count: a call count, for calls made about a million times a pass.  These
  wrappers take positional arguments only: keyword handling and a dict
  update per call would add several tenths of a microsecond to each.

Self time is a call's duration minus the time its traced children took.  A
`*_s` metric is the inclusive time of the outermost calls of that name.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import time
import weakref
from collections import Counter, defaultdict

SPAN_FIELDS = ("trace_id", "span_id", "parent_id", "name", "start_s", "end_s", "self_s")

# per-layer metric -> (kind of total, name of the traced call or count)
LAYER_METRICS = {
    "problem.load_s": ("time", "problem.load"),
    "rhl.parse_s": ("time", "rhl.parse"),
    "judge.core.pairs_s": ("time", "judge.core.pairs"),
    "judge.core.pre_pairs": ("count", "judge.core.pre_pairs"),
    "judge.core.partners_s": ("time", "judge.core.partners"),
    "judge.core.partners_n": ("calls", "judge.core.partners"),
    "judge.core.postmap_get_n": ("count", "judge.core.postmap_get_n"),
    "judge.core.postmap_miss_n": ("count", "judge.core.postmap_miss_n"),
    "models.kmodel.kat_post_s": ("time", "models.kmodel.kat_post"),
    "models.kmodel.kat_pre_s": ("time", "models.kmodel.kat_pre"),
    "models.kmodel.interp_kat_n": ("count", "models.kmodel.interp_kat_n"),
    "models.imp.step_n": ("count", "models.imp.step_n"),
    "models.imp.holds_n": ("count", "models.imp.holds_n"),
    "judge.oracles.dispatch_s": ("time", "judge.oracles.dispatch"),
    "judge.oracles.route.equational_n": ("count", "judge.oracles.route.equational_n"),
    "judge.oracles.route.pointfree_n": ("count", "judge.oracles.route.pointfree_n"),
    "judge.witness.term_image_s": ("time", "judge.witness.term_image"),
    "judge.witness.sources_n": ("count", "judge.witness.sources_n"),
    "judge.witness.image_pairs_n": ("count", "judge.witness.image_pairs_n"),
    "bi.script.check_s": ("time", "bi.script.check"),
    "bi.script.steps_n": ("count", "bi.script.steps_n"),
    "kat.decide.kat_equiv_s": ("time", "kat.decide.kat_equiv"),
    "kat.decide.kat_equiv_n": ("calls", "kat.decide.kat_equiv"),
    "rhl.proof.side_s": ("time", "rhl.proof.side"),
    "rhl.proof.side_n": ("calls", "rhl.proof.side"),
    "rhl.proof.leaf_oracle_s": ("time", "rhl.proof.leaf_oracle"),
    "rhl.proof.root_oracle_s": ("time", "rhl.proof.root_oracle"),
}


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.trace_id = ""
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._pairs_seen: weakref.WeakSet = weakref.WeakSet()
        self.reset_totals()

    def reset_totals(self):
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._counters: defaultdict = defaultdict(list)
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)

    # --- wrappers ----------------------------------------------------------

    def timed(self, name, fn, keep_spans: bool = True, after=None):
        """Wrap `fn`; `after(counts, args, result)` records counts from a call.
        `name` may be a function of the caller's frame."""
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(sys._getframe(1)) if callable(name) else name
            self._next_id += 1
            frame = [self._next_id, label, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[2]
                self_s = dur - frame[3]
                if stack:
                    stack[-1][3] += dur
                self.calls[label] += 1
                self.self_time[label] += self_s
                if not any(f[1] == label for f in stack):
                    self.inclusive[label] += dur
                if keep_spans:
                    parent = stack[-1][0] if stack else None
                    self.spans.append((self.trace_id, frame[0], parent, label,
                                       frame[2], end, self_s))
            if after is not None:
                after(self.counts, args, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        calls = itertools.count()
        self._counters[name].append(calls)
        tick = calls.__next__

        @functools.wraps(fn)
        def wrapper(*args):
            tick()
            return fn(*args)

        return wrapper

    def _collect_counters(self):
        """Move the call counters into `counts`; reading one ends it."""
        for name, counters in self._counters.items():
            self.counts[name] += sum(next(c) for c in counters)
        self._counters.clear()

    def patch(self, owners, attr: str, make):
        """Replace `attr` on each owner by one wrapper of the first owner's
        value, so that every import of one function shares its totals."""
        wrapper = make(getattr(owners[0], attr))
        for owner in owners:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._collect_counters()

    # --- the bikat layers ---------------------------------------------------

    def install(self):
        from bikat import problem
        from bikat.bi import decide as bdecide, script
        from bikat.judge import core, oracles, trikat, witness
        from bikat.models import bmodel, imp
        from bikat.rhl import parse as rparse, proof, selfcomp

        timed, counted = self.timed, self.counted

        self.patch([problem], "load_problem", lambda f: timed("problem.load", f))
        self.patch([rparse], "parse_proof", lambda f: timed("rhl.parse", f))

        def first_enumeration(counts, args, result):
            spec = args[0]
            if spec not in self._pairs_seen:
                self._pairs_seen.add(spec)
                counts["judge.core.pre_pairs"] += len(result)

        self.patch([core.PairSpec], "pairs",
                   lambda f: timed("judge.core.pairs", f, after=first_enumeration))
        self.patch([core.PairSpec], "partners_left",
                   lambda f: timed("judge.core.partners", f, keep_spans=False))
        self.patch([core.PostMap], "__getitem__",
                   lambda f: counted("judge.core.postmap_get_n", f))
        # PostMap is the only caller of kat_post/kat_pre outside kmodel, so
        # these wrappers see the outermost calls and exactly the map's misses
        for attr in ("kat_post", "kat_pre"):
            self.patch([core], attr, lambda f, attr=attr: counted(
                "judge.core.postmap_miss_n",
                timed(f"models.kmodel.{attr}", f, keep_spans=False)))
        self.patch([oracles, bmodel, trikat], "interp_kat",
                   lambda f: counted("models.kmodel.interp_kat_n", f))
        self.patch([imp.ImpEnv], "step", lambda f: counted("models.imp.step_n", f))
        self.patch([imp.ImpEnv], "holds", lambda f: counted("models.imp.holds_n", f))

        def routes(counts, args, result):
            for route in ("equational", "pointfree"):
                if route in result.routes:
                    counts[f"judge.oracles.route.{route}_n"] += 1

        self.patch([oracles, proof], "dispatch",
                   lambda f: timed("judge.oracles.dispatch", f, after=routes))
        self.patch([oracles], "check_adequacy",
                   lambda f: timed("judge.oracles.check_adequacy", f))

        def images(counts, args, result):
            counts["judge.witness.sources_n"] += len(args[2])
            counts["judge.witness.image_pairs_n"] += sum(len(v) for v in result.values())

        self.patch([witness], "term_image",
                   lambda f: timed("judge.witness.term_image", f, after=images))

        def steps(counts, args, result):
            counts["bi.script.steps_n"] += len(result.trace)

        self.patch([script], "check_script",
                   lambda f: timed("bi.script.check", f, after=steps))
        self.patch([script, bdecide], "kat_equiv",
                   lambda f: timed("kat.decide.kat_equiv", f))

        self.patch([proof], "check_proof", lambda f: timed("rhl.proof.check", f))
        self.patch([proof], "discharge_side_condition",
                   lambda f: timed("rhl.proof.side", f))

        # the root oracle is the one check_proof calls itself, after the walk
        def oracle_name(caller) -> str:
            return ("rhl.proof.root_oracle" if caller.f_code.co_name == "check_proof"
                    else "rhl.proof.leaf_oracle")

        self.patch([proof.RhlContext], "oracle", lambda f: timed(oracle_name, f))
        self.patch([selfcomp], "check_selfcomp",
                   lambda f: timed("rhl.proof.leaf_oracle", f))

    # --- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of the totals since the last reset."""
        out = {}
        for metric, (kind, name) in LAYER_METRICS.items():
            if kind == "time":
                out[metric] = self.inclusive.get(name, 0.0)
            elif kind == "calls":
                out[metric] = self.calls.get(name, 0)
            else:
                out[metric] = self.counts.get(name, 0)
        gets = out["judge.core.postmap_get_n"]
        misses = out["judge.core.postmap_miss_n"]
        out["judge.core.postmap_hit_ratio"] = (gets - misses) / gets if gets else 0.0
        return out

    def totals(self) -> dict:
        """Per call name: calls, inclusive and self seconds; and the counts."""
        names = sorted(set(self.calls) | set(self.counts))
        return {
            "calls": {n: {"calls": self.calls[n],
                          "inclusive_s": self.inclusive.get(n, 0.0),
                          "self_s": self.self_time.get(n, 0.0)}
                      for n in names if n in self.calls},
            "counts": dict(sorted(self.counts.items())),
        }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
