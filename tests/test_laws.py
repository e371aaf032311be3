"""Every alignment law, in every direction, pinned.  Each entry replays one
step on an abstract term over the alphabet of test_bi: the step is accepted
with a pinned `after` term, and the instance it records holds on small random
bimodels; a perturbation of the step is rejected at that step, with an error
that names the law."""

import re

import pytest

from bikat.bi import parse_step, script
from bikat.bi.script import (AlignmentScript, ScriptContext, ScriptError, Step, apply_step,
                              check_script)
from bikat.bi.terms import BPlus, BSeq, BStar
from bikat.kat import ZeroHypothesis, parse_term
from bikat.models import interp_bikat
from bikat.problem import load_problem

from test_bi import ALPH, bt, models, with_steps

# a zero-hypothesis that holds in every model, so its instance does too
DEAD = ZeroHypothesis("dead", parse_term("a;p;!p", ALPH))
LOCKSTEP = "e: p, c: a, e2: q, c2: b"
COND = f"{LOCKSTEP}, q: P, r: Q"


def ctx() -> ScriptContext:
    return ScriptContext(
        hypotheses={"dead": DEAD},
        parse_kat=lambda s: parse_term(s, ALPH),
        parse_test=lambda s: parse_term(s, ALPH).test,
        parse_bitest=lambda s: bt(s).test,
    )


# id -> (start term, accepted step, its pinned `after` term,
#        a perturbed step that is rejected, a fragment of its error)
LAWS = {
    "lrc": ("[b> ; <a] ; <c]", "lrc @ root",
            "<a] ; [b> ; <c]",
            "lrc @ root (at: 1)", "lrc: factors at 1 are L/L-sided"),
    "lrc rev": ("<a] ; [b> ; <c]", "lrc @ root (rev)",
                "[b> ; <a] ; <c]",
                "lrc @ root (at: 1, rev)", "lrc rev: factors at 1 are R/L-sided"),
    "hom-seq": ("<a;b] ; [c>", "hom-seq @ 0",
                "<a] ; <b] ; [c>",
                "hom-seq @ 1", "hom-seq: "),
    "hom-seq rev": ("<a] ; <b;p] ; [c>", "hom-seq @ root (at: 0, count: 2, rev)",
                    "<a ; b ; p] ; [c>",
                    "hom-seq @ root (at: 1, count: 2, rev)", "hom-seq rev: "),
    "hom-plus": ("<a + b] ; [c>", "hom-plus @ 0",
                 "(<a] + <b]) ; [c>",
                 "hom-plus @ 1", "hom-plus: "),
    "hom-plus rev": ("(<a] + <b;c]) ; [c>", "hom-plus @ 0 (rev)",
                     "<a + b ; c] ; [c>",
                     "hom-plus @ 1 (rev)", "hom-plus rev: "),
    "hom-star": ("<(a;b)*] ; [c>", "hom-star @ 0",
                 "<a ; b]* ; [c>",
                 "hom-star @ 1", "hom-star: "),
    "hom-star rev": ("[a;b>* ; <c]", "hom-star @ 0 (rev)",
                     "[(a ; b)*> ; <c]",
                     "hom-star @ 1 (rev)", "hom-star rev: "),
    "distrib-left": ("<a] ; ([b> + <c]) ; [a>", "distrib-left @ root (at: 1)",
                     "(<a] ; <c] + <a] ; [b>) ; [a>",
                     "distrib-left @ root (at: 2)", "distrib-left: factor at 2 is not a sum"),
    "distrib-left rev": ("<a] ; [b> + <a] ; <c]", "distrib-left @ root (rev)",
                         "<a] ; (<c] + [b>)",
                         "distrib-left @ root (count: 2, rev)",
                         "distrib-left rev: summands do not share a 2-factor prefix"),
    "distrib-right": ("<a] ; ([b> + <c]) ; [a>", "distrib-right @ root (at: 1)",
                      "<a] ; (<c] ; [a> + [b> ; [a>)",
                      "distrib-right @ root (at: 0)", "distrib-right: factor at 0 is not a sum"),
    "distrib-right rev": ("<b] ; [a> + <c] ; [a>", "distrib-right @ root (rev)",
                          "(<b] + <c]) ; [a>",
                          "distrib-right @ root (count: 2, rev)",
                          "distrib-right rev: summands do not share a 2-factor suffix"),
    "unfold-star": ("[c> ; (<a] ; [b>)*", "unfold-star @ 1",
                    "[c> ; (true + <a] ; [b> ; (<a] ; [b>)*)",
                    "unfold-star @ 0", "unfold-star: "),
    "unfold-star rev": ("1 + <a] ; <a]*", "unfold-star @ root (rev)",
                        "<a]*",
                        "unfold-star @ 1 (rev)", "unfold-star rev: "),
    "slide": ("<c] ; <a] ; ([b> ; <a])*", "slide @ root (at: 1)",
              "<c] ; (<a] ; [b>)* ; <a]",
              "slide @ root (at: 0)", "slide: expected factor followed by a star"),
    "slide rev": ("(<a] ; [b>)* ; <a] ; [c>", "slide @ root (rev)",
                  "<a] ; ([b> ; <a])* ; [c>",
                  "slide @ root (at: 1, rev)",
                  "slide rev: expected a star followed by a factor"),
    "hom-test": ("L[p] ; (<a] + [b>)", "hom-test @ 0",
                 "L[p] ; (<a] + [b>)",
                 "hom-test @ 1", "hom-test: path must address a one-sided test"),
    "assoc": ("<a] ; (<b] ; [c>)", "assoc @ root",
              "<a] ; <b] ; [c>",
              "assoc @ 5", "no child 5"),
    "comm-plus": ("[c> + <a]", "comm-plus @ root",
                  "<a] + [c>",
                  "comm-plus @ 0", "comm-plus: path must address a sum"),
    "expand-lockstep": ("<(p;a)*|(q;b)*> ; <!p|!q>", f"expand-lockstep @ root ({LOCKSTEP})",
                        "(<p ; a] ; [q ; b>)* ; ((!L[p] ; [q ; b>)* + (<p ; a] ; !R[q])*)"
                        " ; !L[p] ; !R[q]",
                        f"expand-lockstep @ root (at: 1, {LOCKSTEP})",
                        "expand-lockstep: expected segment"),
    "expand-cond": ("<p;a]* ; <!p] ; [q;b>* ; [!q>", f"expand-cond @ root ({COND})",
                    "([P] ; <p ; a] + [Q] ; [q ; b> + ![P] ; <p ; a] ; !R[q] + ![Q] ; !L[p] ;"
                    " [q ; b> + (![P] & ![Q]) ; <p ; a] ; [q ; b>)* ; !L[p] ; !R[q]",
                    f"expand-cond @ root (at: 1, {COND})", "expand-cond: expected segment"),
    "hyp": ("[c> ; <a] ; L[p] ; !L[p] ; <b]", "hyp @ root (at: 1, name: dead)",
            "false",
            "hyp @ root (at: 2, name: dead)", "hyp dead: expected segment"),
    "kat-subterm": ("<a;(b;a)*] ; [c>", "kat-subterm @ 0 (to: (a;b)*;a)",
                    "<(a ; b)* ; a] ; [c>",
                    "kat-subterm @ 0 (to: (b;a)*;b)", "kat-subterm: "),
}
# the laws that canonical form already applies record no instance
NO_INSTANCE = {"hom-test", "assoc", "comm-plus"}


def replay(start: str, step: str):
    term = bt(start)
    return check_script(AlignmentScript(term, (parse_step(step),), term), ctx())


def names(text: str) -> tuple[str, ...]:
    return tuple(text.split(", ")) if text else ()


def test_the_docstring_lists_every_law_and_its_parameters():
    listed = {law: (names(params), names(rev) if marker else None)
              for law, params, marker, rev in re.findall(
                  r"^  ([a-z-]+) +\(([^)]*)\)( +rev \(([^)]*)\))?$", script.__doc__, re.M)}
    assert listed == {law: (entry.params, entry.rev) for law, entry in script.LAWS.items()}
    # the table above has one entry per law and direction
    assert len(LAWS) == 23
    assert set(LAWS) == set(listed) | {f"{law} rev" for law, (_, rev) in listed.items()
                                       if rev is not None}


@pytest.mark.parametrize("entry", sorted(LAWS))
def test_law_accepts_its_step(entry):
    start, step, after, *_ = LAWS[entry]
    res = replay(start, step)
    assert res.failed_step is None, res.error
    (trace,) = res.trace
    assert str(trace.after) == after
    instance = trace.instance
    if entry in NO_INSTANCE:
        assert instance is None
        return
    assert instance.name == ("hyp(dead)" if entry == "hyp" else entry.split()[0])
    assert instance.star_continuous_only == (entry == "expand-cond")
    assert instance.lhs != instance.rhs
    for bm in models(6, size=3):
        assert interp_bikat(bm, instance.lhs) == interp_bikat(bm, instance.rhs), entry


@pytest.mark.parametrize("entry", sorted(LAWS))
def test_law_rejects_a_perturbed_step(entry):
    start, *_, bad, message = LAWS[entry]
    res = replay(start, bad)
    assert not res.accepted and res.failed_step == 0 and not res.trace
    assert res.error.startswith(f"step 1 ({entry.split()[0]} @ ")
    assert message in res.error


@pytest.mark.parametrize("start, step, message", [
    ("<b] ; [a> + <c] ; [a>", "distrib-right @ root (count: 3, rev)",
     "distrib-right rev: summands do not share a 3-factor suffix"),
    ("<a] ; [b> + <a] ; <c]", "distrib-left @ root (count: 3, rev)",
     "distrib-left rev: summands do not share a 3-factor prefix"),
    ("<a] ; [b> + <a] ; <c]", "distrib-left @ root (count: 0, rev)",
     "distrib-left rev: summands do not share a 0-factor prefix"),
    ("[c> ; <a] ; <b]", "hom-seq @ root (at: 1, count: 3, rev)",
     "hom-seq rev: expected a sequence whose operands all embed from one side, "
     "found <a] ; <b]"),
    ("[c> ; <a] ; <b]", "hom-seq @ root (at: 0, count: -1, rev)",
     "hom-seq rev: count must be at least 2, found -1"),
])
def test_a_count_past_the_factors_is_refused(start, step, message):
    # a slice would take fewer factors than the step names
    res = replay(start, step)
    assert res.failed_step == 0 and f"): {message}\n" in res.error


# steps whose parameters the law does not read, on corpus scripts
@pytest.mark.parametrize("stem, step, message", [
    ("factorial-ni", "lrc @ root (at: 3, rev, foo: 3)", "lrc rev does not read foo"),
    ("factorial-ni", "hom-seq @ 0 (at: 5, count: 9)", "hom-seq does not read at, count"),
    ("factorial-ni", "expand-lockstep @ root (at: 4, e: [i != 0], c: r := r * i ; "
     "i := i - 1, e2: [i != 0], c2: r := r * i ; i := i - 1, q: L[i != 0])",
     "expand-lockstep does not read q"),
    ("factorial-ni", "lrc @ root (at: 3, dir: reverse)", "lrc has no direction 'reverse'"),
    ("factorial-ni", "hom-test @ 0 (rev)", "hom-test has no direction 'rev'"),
    ("simple-sum", "hyp @ 0 (at: 0, name: init_exits, side: X)",
     "hyp: side must be L or R, found 'X'"),
])
def test_parameters_a_law_does_not_read_are_refused(stem, step, message):
    prob = load_problem(with_steps(stem, step))
    res = check_script(prob.script(), prob.script_context())
    assert not res.accepted and res.failed_step == 0
    assert res.error.startswith(f"step 1 ({step.split()[0]} @ ")
    assert f"): {message}\n" in res.error


def test_unfold_star_refuses_a_sequence_that_ends_in_a_star():
    # the law addresses a star, not a chain whose last factor is one: [c> would be lost
    res = replay("[c> ; (<a] ; [b>)*", "unfold-star @ root")
    assert res.failed_step == 0
    assert "): unfold-star: expected a star, found [c> ; (<a] ; [b>)*\n" in res.error


def test_hom_test_refuses_an_embedded_action():
    # the factor embeds from one side, but it is an action, not a test
    res = replay("<a] ; [b>", "hom-test @ 0")
    assert res.failed_step == 0
    assert "): hom-test: path must address a one-sided test, found <a]\n" in res.error


def node_paths(t, path=()):
    yield path
    kids = t.args if isinstance(t, (BSeq, BPlus)) else (t.arg,) if isinstance(t, BStar) else ()
    for i, kid in enumerate(kids):
        yield from node_paths(kid, path + (i,))


# the laws whose steps need no parameter but a direction and `at`
STRUCTURAL = [law for law, entry in script.LAWS.items()
              if set(entry.params) | set(entry.rev or ()) <= {"at", "count"}]


@pytest.mark.parametrize("entry", sorted(LAWS))
def test_every_accepted_structural_step_keeps_the_meaning(entry):
    # each such law at every node of the entry's start term, in each direction
    # and at each index of the node's chain: a step it accepts is an equation
    term = bt(LAWS[entry][0])
    bms = models(3, size=3)
    for path in node_paths(term):
        for law in STRUCTURAL:
            for rev in (False, True)[:1 + (script.LAWS[law].rev is not None)]:
                for at in range(len(script.seq_chain(script.subterm_at(term, path)))):
                    params = {"at": str(at)} if "at" in script.LAWS[law].params else {}
                    step = Step(law, path, {**params, **({"dir": "rev"} if rev else {})})
                    try:
                        after, instance = apply_step(term, step, ctx())
                    except ScriptError:
                        continue
                    sides = [(term, after)] + ([] if instance is None else
                                               [(instance.lhs, instance.rhs)])
                    for bm in bms:
                        for lhs, rhs in sides:
                            assert interp_bikat(bm, lhs) == interp_bikat(bm, rhs), step
