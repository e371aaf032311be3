"""Time-to-verdict benchmark for the bikat relational checkers.

Run from the repository root:

    python3 perfbench/run.py --workload judge-large --seed 1 --seconds 42 --trace 0

One process runs one workload as a closed loop: one thread, and each check
starts after the previous verdict.  A pass checks every case of the workload
once, in a seeded order, loading each problem afresh, so per-model caches are
paid again as a command-line user pays them.  Before each pass come a few
rounds that only load the problems, outside the pass's time; `setup_s` is
their median.  Passes repeat, each after `gc.collect()`, while the next one
fits in `--seconds`.  Every pass counts, the first one too.  Every verdict
is compared with its known answer.

A shared virtual machine can change speed by half within minutes, in CPU
time as in wall time.  So the benchmark also times a fixed pure-Python
reference round, which does not use bikat, while bikat works (see
HostSpeed), and gives the time of each load and each check in units of
the rounds timed during it: `check_ref` and `judgment_ref`.  They
are the gated end-to-end times; the same times in seconds, `check_s` and
`judgment_s`, are reported beside them.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics.  With `--trace 1`, untraced and traced passes alternate and
the last line holds the per-layer metrics instead.  Details (every pass, every
check, failure causes, and for a traced run its spans and per-layer totals)
go to `perfbench/out/<workload>-seed<seed>-trace<0|1>.json`.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import random
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from tracing import SPAN_FIELDS, Tracer, median_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# rounds of problem loading before each pass.  setup_s is their median, so
# it rests on many samples of a few milliseconds, taken at several moments
# of the run: the host's speed drifts over seconds.
SETUP_ROUNDS = 12
SETUP_SHARE = 0.03  # of --seconds: the rounds before one pass stop past it

# The reference round looks up every key of REF_TABLE REF_ROUNDS times,
# about 6 ms.  The table is small enough to stay in the processor's cache,
# so its time depends little on what bikat left there.  Untraced passes time
# one round every SAMPLE_PERIOD_S (see HostSpeed).
REF_KEYS = tuple((i, i * 7919 % 65521) for i in range(1000))
REF_TABLE = {k: i for i, k in enumerate(REF_KEYS)}
REF_ROUNDS = 80
# setup_s is in seconds at the reference speed: the speed at which one
# reference round takes REF_ROUND_S, near its median on a 2.1 GHz Xeon
REF_ROUND_S = 0.005
SAMPLE_PERIOD_S = 0.25

FAIL_CAUSES = ("wrong", "RouteDisagreement", "EnumRefused", "CapExceeded",
               "SpaceError", "ModelError", "other")


class Bikat:
    """The public bikat functions the benchmark drives, looked up through
    their modules at call time so that the tracer's wrappers are seen."""

    def __init__(self):
        from bikat import problem
        from bikat.bi import script
        from bikat.judge import core, oracles
        from bikat.kat.terms import CapExceeded
        from bikat.models.kmodel import ModelError
        from bikat.models.space import SpaceError
        from bikat.rhl import parse, proof

        self.problem, self.script, self.oracles = problem, script, oracles
        self.rparse, self.proof = parse, proof
        self.refusals = ((oracles.RouteDisagreement, "RouteDisagreement"),
                         (core.EnumRefused, "EnumRefused"),
                         (CapExceeded, "CapExceeded"),
                         (SpaceError, "SpaceError"),
                         (ModelError, "ModelError"))

    def load(self, case: workloads.Case):
        prob = self.problem.load_problem(case.text, case.name,
                                         width_override=case.width_override)
        tree = None
        if case.proof is not None:
            tree = self.rparse.parse_proof(
                case.proof, prob.parser.bitest,
                lambda s: self.problem.parse_expr(self.problem.Cur(s)))
        return prob, tree

    def verdict(self, kind: str, prob, tree) -> bool:
        if kind == "holds":
            return self.oracles.dispatch(prob.bm, prob.judgment()).holds
        if kind == "script_accepted":
            return self.script.check_script(prob.script(), prob.script_context()).accepted
        if kind == "adequate":
            j = prob.judgment()
            return self.oracles.check_adequacy(prob.bm, j.spec.pre, j.left, j.right,
                                               prob.script_goal).holds
        if kind == "proof_accepted":
            return self.proof.check_proof(prob.rhl_context(), tree,
                                          prob.rhl_judgment()).accepted
        raise ValueError(f"unknown check {kind!r}")

    def cause(self, exc: Exception) -> str:
        for cls, name in self.refusals:
            if isinstance(exc, cls):
                return name
        return "other"


def reference_round() -> int:
    """A fixed pure-Python workload, independent of bikat: tuple hashing and
    dict lookups, a few milliseconds.  It makes no container objects, so it
    leaves the garbage collector's counts as it found them."""
    table, n = REF_TABLE, 0
    for _ in range(REF_ROUNDS):
        for k in REF_KEYS:
            n ^= table[k]
    return n


class HostSpeed:
    """Timings of the reference round: one before a pass, one after each
    case, and, while sampling, one every SAMPLE_PERIOD_S from a timer
    signal, in the middle of bikat's work.  `paused` is the time all samples
    took, so that callers can leave it out of what they time."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self.paused = 0.0
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:  # the timer fired during an explicit sample
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_round()
        dt = time.perf_counter() - t0
        self.starts.append(t0)
        self.times.append(dt)
        self.paused += dt
        self._busy = False

    def start_sampling(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop_sampling(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean_over(self, a: float, b: float) -> float:
        """Mean of the samples taken in [a, b], the last one before a and the
        first one after b."""
        lo = max(bisect.bisect_left(self.starts, a) - 1, 0)
        hi = bisect.bisect_right(self.starts, b) + 1
        return statistics.fmean(self.times[lo:hi])


@dataclass
class PassResult:
    traced: bool
    wall_s: float = 0.0
    setup_s: float = 0.0
    verdict_s: dict = field(default_factory=lambda: {
        "judgment_s": 0.0, "adequacy_s": 0.0, "proof_s": 0.0})
    check_ref: float = 0.0  # wall_s in reference rounds
    judgment_ref: float = 0.0
    ref_s: list = field(default_factory=list)  # reference timings of the pass
    checks: list = field(default_factory=list)
    layers: dict | None = None


def run_pass(bk: Bikat, cases, tracer: Tracer | None, pass_no: int) -> PassResult:
    res = PassResult(traced=tracer is not None)
    clock = time.perf_counter
    host = HostSpeed()
    segments: list[tuple[float, float, float]] = []  # (start, end, seconds)

    def timed(fn):
        """fn(), adding a segment: its interval, and its seconds without the
        reference rounds timed during it."""
        t0, p0 = clock(), host.paused
        try:
            return fn()
        finally:
            t1 = clock()
            segments.append((t0, t1, t1 - t0 - (host.paused - p0)))

    host.sample()
    if tracer is None:
        host.start_sampling()
    try:
        for case in cases:
            if tracer is not None:
                tracer.trace_id = f"{pass_no}/{case.name}/setup"
            segments.clear()
            holds: list[int] = []  # indexes of the `holds` checks in segments
            try:
                prob, tree = timed(lambda: bk.load(case))
                load_error = None
            except Exception as exc:  # reported as every check of the case failing
                load_error = f"load: {type(exc).__name__}: {exc}"
            res.setup_s += segments[-1][2]
            for check in case.checks:
                if tracer is not None:
                    tracer.trace_id = f"{pass_no}/{case.name}/{check.kind}"
                got, cause, detail, dt = None, None, load_error, 0.0
                if load_error is not None:
                    cause = "other"
                else:
                    try:
                        got = timed(lambda: bk.verdict(check.kind, prob, tree))
                    except Exception as exc:  # counted by cause; the run goes on
                        cause, detail = bk.cause(exc), f"{type(exc).__name__}: {exc}"
                    dt = segments[-1][2]
                if cause is None and got != check.expected:
                    cause = "wrong"
                metric = workloads.VERDICT_METRIC[check.kind]
                if metric is not None:
                    res.verdict_s[metric] += dt
                if metric == "judgment_s" and load_error is None:
                    holds.append(len(segments) - 1)
                res.checks.append({"case": case.name, "check": check.kind,
                                   "expected": check.expected, "reason": check.reason,
                                   "got": got, "seconds": dt, "failure": cause,
                                   "detail": detail})
            host.sample()
            refs = [dt / host.mean_over(t0, t1) for t0, t1, dt in segments]
            res.wall_s += sum(dt for _, _, dt in segments)
            res.check_ref += sum(refs)
            res.judgment_ref += sum(refs[i] for i in holds)
    finally:
        host.stop_sampling()
    res.ref_s = host.times
    return res


def setup_rounds(bk: Bikat, cases, budget_s: float) -> list[tuple[float, float]]:
    """Timed loads of every case, untraced: SETUP_ROUNDS of them, or fewer
    (but one at least) when they take more than `budget_s`.  Each gives its
    seconds and its time in reference rounds, timed just before and after."""
    host = HostSpeed()
    out: list[tuple[float, float]] = []
    spent = 0.0
    host.sample()
    while len(out) < SETUP_ROUNDS and (not out or spent < budget_s):
        gc.collect()
        t0 = time.perf_counter()
        for case in cases:
            try:
                bk.load(case)
            except Exception:  # the passes count it as failed checks
                pass
        dt = time.perf_counter() - t0
        host.sample()
        spent += dt
        out.append((dt, dt / statistics.fmean(host.times[-2:])))
    return out


def quartiles(xs: list[float]) -> dict:
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return {"q1": q[0], "median": statistics.median(xs), "q3": q[2], "n": len(xs)}


def measure(bk: Bikat, cases, seed: int, seconds: float, trace: bool):
    """Setup rounds and a pass, repeated until the next pair would end after
    `seconds`.  With `trace`, untraced and traced passes alternate and each
    kind runs at least once."""
    rng = random.Random(seed)
    tracer = Tracer() if trace else None
    passes: list[PassResult] = []
    setups: list[tuple[float, float]] = []
    costs = {False: 0.0, True: 0.0}  # last setup rounds + pass, by traced
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        estimate = costs[traced] or max(costs.values())
        elapsed = time.perf_counter() - start
        missing = trace and len(passes) < 2
        if passes and not missing and elapsed + estimate > seconds:
            break
        t0 = time.perf_counter()
        setups += setup_rounds(bk, cases, SETUP_SHARE * seconds)
        order = list(cases)
        rng.shuffle(order)
        gc.collect()
        if traced:
            tracer.reset_totals()
            tracer.install()
            try:
                p = run_pass(bk, order, tracer, len(passes))
            finally:
                tracer.uninstall()
            p.layers = tracer.layer_metrics()
        else:
            p = run_pass(bk, order, None, len(passes))
        passes.append(p)
        costs[traced] = time.perf_counter() - t0
    return passes, setups, tracer


def end_to_end(untraced: list[PassResult], setups) -> dict[str, float]:
    return {
        "check_ref": statistics.median(p.check_ref for p in untraced),
        "setup_s": statistics.median(r for _, r in setups) * REF_ROUND_S,
        "judgment_ref": statistics.median(p.judgment_ref for p in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def raw_seconds(untraced: list[PassResult], setups) -> dict[str, float]:
    """The end-to-end times in seconds, and the reference round's time."""
    return {
        "setup_wall_s": statistics.median(w for w, _ in setups),
        "check_s": statistics.median(p.wall_s for p in untraced),
        "judgment_s": statistics.median(p.verdict_s["judgment_s"] for p in untraced),
        "ref_loop_s": statistics.median(r for p in untraced for r in p.ref_s),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=HERE / "out",
                    help="directory for the detailed results")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "bikat" / "__init__.py").is_file():
        print(f"error: no bikat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        cases = workloads.build(args.workload, ROOT, args.seed)
    except workloads.WorkloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    bk = Bikat()

    passes, setups, tracer = measure(bk, cases, args.seed, args.seconds,
                                     bool(args.trace))
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]

    checks = [c for p in passes for c in p.checks]
    causes = {k: sum(c["failure"] == k for c in checks) for k in FAIL_CAUSES}
    failed = sum(causes.values())
    e2e = end_to_end(untraced, setups)
    raw = raw_seconds(untraced, setups)
    walls = [p.wall_s for p in untraced]
    refs = [p.check_ref for p in untraced]
    detail = {
        "workload": args.workload, "seed": args.seed,
        "ftable_seed": workloads.table_seed(args.seed), "seconds": args.seconds,
        "trace": args.trace, "end_to_end": e2e, "raw_seconds": raw,
        "check_ref": quartiles(refs),
        "check_s": quartiles(walls),
        "first_pass_ratio": (refs[0] / statistics.median(refs[1:])
                             if len(refs) > 1 else None),
        "verdict_s": {k: quartiles([p.verdict_s[k] for p in untraced])
                      for k in untraced[0].verdict_s},
        "setup_s_samples": [r * REF_ROUND_S for _, r in setups],
        "setup_wall_s_samples": [w for w, _ in setups],
        "attempted": len(checks), "failed": failed,
        "fail_ratio": failed / len(checks), "fail_causes": causes,
        "passes": [{"traced": p.traced, "wall_s": p.wall_s, "setup_s": p.setup_s,
                    **p.verdict_s, "check_ref": p.check_ref,
                    "judgment_ref": p.judgment_ref, "ref_s": p.ref_s,
                    "checks": p.checks} for p in passes],
    }
    if args.trace:
        layers = median_metrics([p.layers for p in traced])
        traced_s = statistics.median(p.wall_s for p in traced)
        layers["trace.overhead_ratio"] = traced_s / raw["check_s"]
        layers.update(raw)
        layers["adequacy_s"] = statistics.median(p.verdict_s["adequacy_s"] for p in untraced)
        layers["proof_s"] = statistics.median(p.verdict_s["proof_s"] for p in untraced)
        detail["per_layer"] = layers
        detail["ratios"] = {
            "judge.core.postmap_hit_ratio": {
                "value": layers["judge.core.postmap_hit_ratio"],
                "base": "judge.core.postmap_get_n",
                "base_value": layers["judge.core.postmap_get_n"]},
            "trace.overhead_ratio": {
                "value": layers["trace.overhead_ratio"],
                "base": "check_s of the untraced passes of this run",
                "base_value": raw["check_s"], "traced_check_s": traced_s},
        }
        detail["layer_totals_last_traced_pass"] = tracer.totals()
        detail["span_fields"] = SPAN_FIELDS
        detail["spans"] = tracer.spans
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in e2e.items()}

    args.out.mkdir(parents=True, exist_ok=True)
    out_file = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(detail, indent=1))

    print(f"{args.workload} seed={args.seed}: {len(passes)} passes "
          f"({len(traced)} traced), check_s median {raw['check_s']:.3f} s "
          f"({e2e['check_ref']:.1f} ref), "
          f"{failed}/{len(checks)} checks failed {causes}; details in {out_file}")
    for c in checks:
        if c["failure"]:
            print(f"  FAILED {c['case']} {c['check']}: {c['failure']} "
                  f"(expected {c['expected']}: {c['reason']}; got {c['got']}) "
                  f"{c['detail'] or ''}")
    print(json.dumps({"correct": failed == 0, "attempted": len(checks),
                      "failed": failed, "metrics": metrics}))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_ref"):
        return "ref"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
