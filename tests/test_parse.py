"""The parser front end: refusals, round trips and fuzzing of every syntax."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bikat.bi import BiAlphabet, bikat_equiv, parse_biterm, parse_step, script
from bikat.bi.terms import (BT0, BT1, BEmbLTest, BEmbRTest, BPrim, band, bembl,
                            bembr, bnot, bor, bplus, bseq, bstar, btest, emb_pair)
from bikat.judge import oracles, witness
from bikat.judge.oracles import ORACLES, dispatch
from bikat.kat import (Alphabet, CapExceeded, ParseError, kact, kat_equiv,
                       kseq, parse_term)
from bikat.models.space import SpaceError
from bikat.problem import (CHECKS, Cur, load_problem, parse_bool, parse_expr,
                           parse_stmt, passed)
from bikat.rhl import check_selfcomp, proof
from bikat.rhl.parse import parse_proof
from bikat.rhl.proof import rel_bitest_term

from gen import random_bikat, random_kat
from test_corpus import CORPUS, NAMES
from test_judgments import assert_refutes
from test_record import TEXTS

PROOFS = {p.stem: p.read_text() for p in sorted(CORPUS.glob("*.proof"))}
ALPH = Alphabet.make(["p", "q", "r"], ["a", "b", "c"])

SMALL = "width 2;\nvars x y;\nleft { x := 1; }\nright { y := 1; }\n"


def proof_of(text: str, stem: str = "factorial-ni"):
    prob = load_problem(TEXTS[stem], stem, width_override=2)
    return parse_proof(text, prob.parser.bitest, lambda s: parse_expr(Cur(s)))


# --- proofs -------------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "(",                      # no rule name
    "",                       # empty input
    "(rule :inv",             # annotation without a value
    "(rule :lsplit x)",       # split that is not an integer
    "(rule })",               # stray closing brace
    "(rule :inv {[n == n]}",  # unclosed node after a value
    "(rule) (rule)",          # trailing tree
    "({x} :inv {[n == n]})",  # a blob is no rule name
    "(rule word)",            # a bare word is no annotation
    "(rule :inv {[n == n])",  # unclosed blob
])
def test_bad_proof_raises_parse_error(text):
    with pytest.raises(ParseError):
        proof_of(text)


def test_proof_values_and_comments():
    tree = proof_of("# a comment\n(dseq :lsplit 2 :rsplit {3 # three\n} :side hyp=h "
                    ":variant {n - i} (dprim) (dprim))")
    assert tree.rule == "dseq"
    assert tree.ann["lsplit"] == 2 and tree.ann["rsplit"] == 3
    assert tree.ann["side"] == "hypothesis:h"
    assert [p.rule for p in tree.premises] == ["dprim", "dprim"]


def test_deep_proof_is_a_parse_error():
    with pytest.raises(ParseError, match="nested too deeply"):
        proof_of("(r " * 3000 + ")" * 3000)


# --- problem files ---------------------------------------------------------------

@pytest.mark.parametrize("decl, message", [
    ("array a[0];", "no cells"),
    ("vars x x;", "declared twice"),
    ("var x:1; array x[2];", "declared twice"),
])
def test_bad_declaration_is_refused_on_load(decl, message):
    with pytest.raises(SpaceError, match=message):
        load_problem(SMALL.replace("vars x y;", "vars y; " + decl))


def test_selfcomp_refuses_an_array_that_collides_with_the_renaming():
    # self-composition renames nothing: a space that declares both a and a_r
    # self-composes, and agrees with the oracle
    prob = load_problem("width 1;\narray a[1]; array a_r[1];\n"
                        "left { a[0] := 1; }\nright { a_r[0] := 1; }\n"
                        "post { [a[0] == a[0]] & [a_r[0] == a_r[0]] }\n")
    res = check_selfcomp(prob.rhl_context(), prob.rhl_judgment())
    assert res.holds is dispatch(prob.bm, prob.judgment()).holds is False
    assert res.notes == []
    assert_refutes(prob, "allall", res.counterexample.states)


def test_deep_problem_is_a_parse_error():
    deep = "(" * 3000 + "x" + ")" * 3000
    with pytest.raises(ParseError, match="nested too deeply"):
        load_problem(SMALL.replace("x := 1", "x := " + deep))
    with pytest.raises(ParseError, match="nested too deeply"):
        load_problem(SMALL + "pre { " + deep.replace("x", "[x == x]") + " }")


@pytest.mark.parametrize("block", [
    "gcleft { [x == 0] -> { x := 1; } }",
    "gcright { [y == 0] -> { y := 1; } }",
    "sel_l { true }", "sel_r { true }", "sel_j { true }",
])
def test_guarded_command_blocks_are_unknown(block):
    with pytest.raises(ParseError, match="unknown problem block"):
        load_problem(SMALL + block)


def test_seeded_table_wider_than_the_space_cap_is_refused():
    with pytest.raises(SpaceError, match="function table 'f'"):
        load_problem("width 40;\nvar x:1;\nftable f seed 7;\nleft { x := f(x); }\n")


@pytest.mark.parametrize("block, name, bad", [
    ("pre { [x == x] & L[x = 1] }", "pre block", "= 1]"),
    ("post {\n  [x == x] |\n  [y ? y] }", "post block", "? y]"),
    ("hyp h { x := 1 ; [x ==] }", "hyp h block", "] }"),
    ("implhyp i { [x == x] } { [x == x] & & [y == y] }", "implhyp i block",
     "& [y"),
    ("relhyp r allall { left { x := 1; } pre { [x == x] } post { [x >> x] } }",
     "relhyp r block: post block", "> x]"),
    ("script { goal { <x := 1] ; [y := > } }", "script block: goal block", "> }"),
    ("script {\n steps {\n  hom-seq @ 0\n  lrc @ @ 1 # bad\n }\n}",
     "script block: steps block", "lrc @ @"),
])
def test_block_parse_error_points_into_the_file(block, name, bad):
    # a comment holding the same text must not be where the offset points
    text = "# " + block.replace("\n", " ") + f"\n{SMALL}{block}\n"
    with pytest.raises(ParseError) as err:
        load_problem(text)
    assert str(err.value).startswith(name + ":")
    assert err.value.pos > text.index("\n") + len(SMALL)
    assert text[err.value.pos:].startswith(bad), text[err.value.pos:]
    assert f"(at offset {err.value.pos})" in str(err.value)


TWO = ("width 1;\nvars x;\nleft { x := 1; }\nright { x := 1; }\n"
       "kind fsim;\npre { [x == x] }\npost { [x == x] }\n")


BAD_COMPARISONS = [("[q == y]", "undeclared variable or cell 'q'"),
                   ("[g(x) == y]", "unknown function 'g'"),
                   ("[a[0] == y]", "undeclared array 'a'")]


@pytest.mark.parametrize("bad, message", BAD_COMPARISONS)
@pytest.mark.parametrize("block", [
    "pre { %s }",
    "post { [x == x] & %s }",
    "witness { <x := 1] ; %s ; [y := 1> }",
    "implhyp i { [x == x] } { %s }",
    "relhyp r allall { left { x := 1; } right { y := 1; } pre { %s } post { [x == x] } }",
    "relhyp r allall { left { x := 1; } right { y := 1; } pre { [x == x] } post { !%s } }",
    "script { goal { <x := 1] ; (%s + 1) ; [y := 1> } }",
])
def test_comparison_naming_what_the_space_lacks_is_refused_on_load(block, bad, message):
    # the same names in a program are refused on load; so they are in a bitest
    with pytest.raises(SpaceError, match=message):
        load_problem(SMALL + block % bad)


@pytest.mark.parametrize("block", ["left { x := f(x, y); }", "pre { [f(x, y) == y] }"])
def test_table_call_on_two_arguments_is_refused_on_load(block):
    # a table function reads one argument: a second is refused, not ignored
    with pytest.raises(SpaceError, match="function 'f' takes one argument, not 2$"):
        load_problem("width 2; vars x y; ftable f 1 2 3 0;\n" + block)


@pytest.mark.parametrize("bad, message", BAD_COMPARISONS)
def test_comparison_naming_what_the_space_lacks_is_refused_in_a_proof(bad, message):
    with pytest.raises(SpaceError, match=message):
        proof_of("(rconseq :pre {%s} (dprim))" % bad.replace("x", "n").replace("y", "n"))


@pytest.mark.parametrize("expect, extra, message", [
    ("bogus", "", "unknown expect 'bogus'; known: holds, adequate, script_accepted, "
     "witness_fvalid, witness_bvalid, proof_accepted"),
    ("adequate", "", "expect adequate: the problem has no script goal"),
    ("script_accepted", "", "expect script_accepted: the problem has no script goal"),
    ("adequate", "script { steps { hom-seq @ 0 } }",
     "expect adequate: the problem has no script goal"),
    ("witness_fvalid", "", "expect witness_fvalid: the problem has no witness"),
    ("witness_bvalid", "script { goal { <x := 1 | x := 1> } }",
     "expect witness_bvalid: the problem has no witness"),
])
def test_expect_line_that_cannot_be_checked_is_refused(expect, extra, message):
    # the terms an expect line reads may come after it in the file
    text = f"{TWO}expect holds;\nexpect {expect};\n{extra}\n"
    with pytest.raises(ParseError) as err:
        load_problem(text)
    assert err.value.msg == message
    assert text[err.value.pos:].startswith(f"{expect};")


def test_expect_lines_with_their_terms_load_and_run():
    prob = load_problem(TWO + "expect adequate; expect script_accepted;\n"
                        "expect witness_fvalid; expect witness_bvalid;\n"
                        "expect proof_accepted;\n"
                        "script { goal { <x := 1 | x := 1> } }\n"
                        "witness { <x := 1 | x := 1> }\n")
    assert prob.expects == ["adequate", "script_accepted", "witness_fvalid",
                            "witness_bvalid", "proof_accepted"]
    # the witness runs from (0, 1), outside the pre, to the post pair (1, 1),
    # so it is not backward-valid (WCb)
    checks = prob.checks(None)
    assert [passed(checks[kind]()) for kind in prob.expects[:4]] == [True, True, True, False]


def test_each_check_looks_its_function_up_when_it_runs(monkeypatch):
    # a wrapper put on a check's module attribute after the table is built,
    # as a tracer's is, sees the one call of that check
    prob = load_problem(TWO + "script { goal { <x := 1 | x := 1> } }\n"
                        "witness { <x := 1 | x := 1> }\n")
    checks = prob.checks(parse_proof("(dprim)", prob.parser.bitest,
                                     lambda s: parse_expr(Cur(s))))
    assert list(checks) == [*ORACLES, *CHECKS]
    called_by = {**dict.fromkeys(ORACLES, (oracles, "dispatch")),
                 "adequate": (oracles, "check_adequacy"),
                 "script_accepted": (script, "check_script"),
                 "witness_fvalid": (witness, "check_fvalid"),
                 "witness_bvalid": (witness, "check_bvalid"),
                 "proof_accepted": (proof, "check_proof")}
    calls = []
    for module, name in set(called_by.values()):
        def counting(*args, name=name, f=getattr(module, name)):
            calls.append(name)
            return f(*args)
        monkeypatch.setattr(module, name, counting)
    for check, run in checks.items():
        calls.clear()
        run()
        assert calls == [called_by[check][1]], check


# --- terms and steps ----------------------------------------------------------------

def test_printed_kat_terms_parse_back_to_equivalent_terms():
    # compared by equivalence: the printer brackets test conjunctions
    rng = random.Random(11)
    for _ in range(150):
        t = random_kat(rng, ALPH, 4)
        assert kat_equiv(parse_term(str(t), ALPH), t).is_equal, str(t)


def test_printed_bikat_terms_parse_back():
    # one-sided tests, bracketed bitest names, true/false and bitest | and &
    # are printed as the parser reads them; only KAT test conjunctions inside
    # embeddings come back as sequences, so those are compared by equivalence
    alph = BiAlphabet(ALPH, ("P", "Q"))
    rng = random.Random(3)
    same = 0
    for _ in range(300):
        t = random_bikat(rng, ALPH, alph.bitests, 3)
        back = parse_biterm(str(t), alph)
        same += back == t
        assert back == t or bikat_equiv(back, t).is_equal, str(t)
    assert same > 250


# atoms of program-syntax BiKAT terms, each printed as the parser reads it
IMP_ACTIONS = ("x := y + 1", "y := any", "x := x * y", "y := 3 % (x + 1)")
IMP_CONDS = ("x < 2", "y != x + 1", "x == 0 && y <= 1", "!(x == y) || y > 2")
IMP_COMPARES = (("x", "==", "y"), ("x + 1", "<=", "y"), ("x * 2", "!=", "y % 3"),
                ("y", ">", "x"))


def random_imp_bitest(rng: random.Random, prob, depth: int):
    r = rng.randrange(8 if depth else 3)
    if r == 0:
        lexpr, op, rexpr = rng.choice(IMP_COMPARES)
        return rel_bitest_term(prob.rhl_context(), parse_expr(Cur(lexpr)), op,
                               parse_expr(Cur(rexpr)))
    if r == 1:
        test = prob.env.compile_bool(parse_bool(Cur(rng.choice(IMP_CONDS))))
        return rng.choice((BEmbLTest, BEmbRTest))(test)
    if r == 2:
        return rng.choice((BT0, BT1))
    if r == 3:
        return bnot(random_imp_bitest(rng, prob, depth - 1))
    join = band if r < 6 else bor
    return join(random_imp_bitest(rng, prob, depth - 1),
                random_imp_bitest(rng, prob, depth - 1))


def random_imp_bikat(rng: random.Random, prob, depth: int):
    def action():
        return prob.env.compile_stmt(parse_stmt(Cur(rng.choice(IMP_ACTIONS))))
    r = rng.randrange(4 if depth == 0 else 7)
    if r < 2:
        return btest(random_imp_bitest(rng, prob, 3))
    if r == 2:
        return rng.choice((bembl, bembr))(action())
    if r == 3:
        return emb_pair(action(), action())
    if r == 6:
        return bstar(random_imp_bikat(rng, prob, depth - 1))
    join = bplus if r == 4 else bseq
    return join(random_imp_bikat(rng, prob, depth - 1),
                random_imp_bikat(rng, prob, depth - 1))


def test_printed_program_syntax_bikat_terms_parse_back():
    # expression comparisons, one-sided conditions, !, & and |, true and
    # false, inside and around embedded actions: the one BiKAT grammar reads
    # them in a program-syntax term as in an abstract one
    prob = load_problem(SMALL)
    rng = random.Random(7)
    conj = 0
    for _ in range(300):
        t = random_imp_bikat(rng, prob, 3)
        text = str(t)
        conj += "&" in text
        assert prob.parser.bikat(text) == t, text
    assert conj > 50


def test_embeddings_parse_their_kat_operand_in_place():
    balph = BiAlphabet(ALPH, ("P",))
    a, b = kact("a"), kact("b")
    assert parse_biterm("<a ; b | b> ; P", balph) == \
        bseq(emb_pair(kseq(a, b), b), btest(BPrim("P")))
    assert parse_biterm("<a] ; [b>", balph) == bseq(bembl(a), bembr(b))
    for bad in ("<a b]", "<a | b | c>", "[a]", "<(a|b)]", "<]"):
        with pytest.raises(ParseError):
            parse_biterm(bad, balph)


def test_step_parameters_nest_only_in_round_square_and_curly_brackets():
    step = parse_step("expand-lockstep @ 2.1 (at: 4, e: [i < n], c: x := f(a, b), rev)")
    assert step.path == (2, 1)
    assert step.params == {"at": "4", "e": "[i < n]", "c": "x := f(a, b)", "dir": "rev"}
    with pytest.raises(ParseError):
        parse_step("lrc @ root (at 3)")


# --- fuzzing ----------------------------------------------------------------------

CHARS = "(){}[]<>|&!;:,=+-*#0123456789 \nxiLR"
EDIT = st.tuples(st.integers(0, 10**6), st.integers(0, 3),
                 st.sampled_from(CHARS), st.integers(1, 12))


def mutate(text: str, edits) -> str:
    for pos, op, ch, span in edits:
        i = pos % (len(text) + 1)
        if op == 0:
            text = text[:i] + text[i + span:]
        elif op == 1:
            text = text[:i] + ch + text[i:]
        elif op == 2:
            text = text[:i] + ch + text[i + 1:]
        else:
            text = text[:i] + text[i:i + span] + text[i:]
    return text


FUZZ = settings(max_examples=120, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(st.sampled_from(NAMES), st.lists(EDIT, min_size=1, max_size=3))
def test_mutated_problem_loads_or_is_refused(stem, edits):
    try:
        load_problem(mutate(TEXTS[stem], edits), stem)
    except (ParseError, SpaceError, CapExceeded):
        pass


@FUZZ
@given(st.sampled_from(sorted(PROOFS)), st.lists(EDIT, min_size=1, max_size=3))
def test_mutated_proof_parses_or_is_refused(stem, edits):
    try:
        proof_of(mutate(PROOFS[stem], edits), stem)
    except (ParseError, SpaceError, CapExceeded):
        pass
