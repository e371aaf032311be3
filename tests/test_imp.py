"""The imperative frontend: parsing, semantics, compilation agreement."""

import itertools
import random
from pathlib import Path

import pytest

from bikat.judge import ExprBitest, PairSpec, dispatch
from bikat.models import (ImpEnv, SAssign, SHavoc, SIf, SSkip, SWhile,
                          bitest_holds, interp_kat, kat_post, kat_pre, compile_imp)
from bikat.models.kmodel import image
from bikat.models.space import SpaceError, StateSpace, VarDecl, ArrayDecl
from bikat.problem import Cur, load_problem, parse_block, parse_bool, parse_stmts_text
from bikat.rhl import rename_program

CORPUS = Path(__file__).resolve().parent.parent / "src" / "bikat" / "corpus"


def env_for(widths: dict[str, int], width: int = 3, arrays=(), ftables=None):
    space = StateSpace.structured(
        [VarDecl(n, w) for n, w in widths.items()],
        [ArrayDecl(n, l, w) for (n, l, w) in arrays])
    return ImpEnv(space, width, ftables)


class TestParsing:
    def test_statement_forms(self):
        prog = parse_stmts_text(
            "skip; x := 1; y := any; if (x == 1) { y := x; } else { skip; } "
            "while (y != 0) { y := y - 1; } assume(x <= y);")
        kinds = [type(s).__name__ for s in prog]
        assert kinds == ["SSkip", "SAssign", "SHavoc", "SIf", "SWhile", "SAssume"]

    def test_array_and_call_exprs(self):
        prog = parse_stmts_text("a[i] := f(i * 2 + 1); x := min(x, n);")
        assert type(prog[0]).__name__ == "SArrAssign"

    def test_precedence(self):
        env = env_for({"x": 3, "y": 3})
        prog = parse_stmts_text("x := 1 + 2 * 3;")
        st = next(iter(env.run(prog, frozenset((0,)))))
        assert env.space.get(st, "x") == 7


class TestEvaluation:
    def test_wraparound(self):
        env = env_for({"x": 3})
        s = env.space.set(0, "x", 0)
        (t,) = env.run(parse_stmts_text("x := x - 1;"), frozenset((s,)))
        assert env.space.get(t, "x") == 7

    def test_havoc_fanout(self):
        env = env_for({"x": 3})
        outs = env.run(parse_stmts_text("x := any;"), frozenset((0,)))
        assert len(outs) == 8

    def test_assume_filters(self):
        env = env_for({"x": 2})
        outs = env.run(parse_stmts_text("x := any; assume(x >= 2);"), frozenset((0,)))
        assert {env.space.get(s, "x") for s in outs} == {2, 3}

    def test_array_index_wraps(self):
        env = env_for({"i": 3}, arrays=[("a", 4, 2)])
        s0 = env.space.set(0, "i", 5)
        (t,) = env.run(parse_stmts_text("a[i] := 3;"), frozenset((s0,)))
        assert env.space.get(t, ("a", 1)) == 3  # 5 mod 4

    def test_nonterminating_loop_has_no_finals(self):
        env = env_for({"x": 2})
        outs = env.run(parse_stmts_text("x := 1; while (x == 1) { skip; }"),
                       frozenset((0,)))
        assert outs == frozenset()

    def test_ftable(self):
        env = env_for({"x": 3}, ftables={"f": (1, 0, 1, 0, 1, 0, 1, 0)})
        s0 = env.space.set(0, "x", 2)
        (t,) = env.run(parse_stmts_text("x := f(x);"), frozenset((s0,)))
        assert env.space.get(t, "x") == 1


class TestCompilation:
    def test_skip_is_unit(self):
        env = env_for({"x": 2})
        from bikat.kat.terms import K1
        assert compile_imp((SSkip(),), env) == K1

    def test_factorial_shape(self):
        env = env_for({"n": 3, "i": 3, "r": 3})
        prog = parse_stmts_text(
            "i := n; r := 1; while (i != 0) { r := r * i; i := i - 1; }")
        term = compile_imp(prog, env)
        assert len(env.acts) == 4  # i:=n, r:=1, r:=r*i, i:=i-1
        assert len(env.tests) == 1

    @staticmethod
    def _agree(env, prog, states):
        """The compiled term's images, one state at a time and as a batch,
        equal the direct interpreter's."""
        term = compile_imp(prog, env)
        m = env.kat_model()
        batch = image(m, term, states)
        for s in states:
            direct = env.run(prog, frozenset((s,)))
            assert kat_post(m, term, frozenset((s,))) == direct, (prog, s)
            assert batch[s] == direct, (prog, s)

    def test_compiled_term_agrees_with_interpreter_exhaustively(self):
        env = env_for({"x": 2, "y": 2, "z": 2}, width=2)
        progs = [
            "x := any; if (x <= y) { z := x; } else { z := y; }",
            "while (x != 0) { x := x - 1; y := y + 1; }",
            "z := 0; while (x != 0) { if (y == x) { z := z + 1; } x := x - 1; }",
            "assume(x != y); z := x * y;",
        ]
        for src in progs:
            self._agree(env, parse_stmts_text(src), range(env.space.size))

    # corpus programs at 4096 states a side or fewer; loop-tiling's widths
    # are fixed, so it is checked on a seeded sample of its states
    @pytest.mark.parametrize("name,width", [
        ("array-insert", None), ("double-square", 3), ("factorial-ni", None),
        ("simple-sum", None), ("loop-tiling", None)])
    def test_corpus_programs_agree_with_interpreter(self, name, width):
        prob = load_problem((CORPUS / f"{name}.prob").read_text(), name,
                            width_override=width)
        n = prob.env.space.size
        states = (range(n) if n <= 4096
                  else sorted(random.Random(7).sample(range(n), 512)))
        for prog in (prob.left, prob.right):
            self._agree(prob.env, prog, states)

    def test_preimage_is_converse_of_image(self):
        env = env_for({"x": 2, "y": 2}, width=2)
        prog = parse_stmts_text(
            "y := any; while (x != y) { x := x + 1; } if (x == 0) { y := 1; }")
        term = compile_imp(prog, env)
        m = env.kat_model()
        n = env.space.size
        post = {s: env.run(prog, frozenset((s,))) for s in range(n)}
        pre = image(m, term, range(n), backward=True)
        for t in range(n):
            expected = frozenset(s for s in range(n) if t in post[s])
            assert pre[t] == expected
            assert kat_pre(m, term, (t,)) == expected

    def test_compiled_conditions_agree_with_holds(self):
        env = env_for({"x": 3, "i": 2}, width=3, arrays=[("a", 3, 2)],
                      ftables={"f": (3, 1, 4, 1, 5)})
        for src in ("a[i] < f(x) || !(x % i == 1)", "min(x, a[7]) >= x - a[i + 1]",
                    "max(a[0], 2 * x) != f(a[i]) && true"):
            b = parse_bool(Cur(src))
            pred = env.compile_cond(b)
            assert all(pred(s) == env.holds(b, s) for s in range(env.space.size)), src

    def test_matrix_and_walk_interpretation_agree(self):
        env = env_for({"x": 2, "y": 2}, width=2)
        prog = parse_stmts_text("x := any; while (x != 0) { x := x - 1; y := y + x; }")
        term = compile_imp(prog, env)
        m = env.kat_model()
        rel = interp_kat(m, term)
        for s in range(env.space.size):
            assert frozenset(rel.succ(s)) == kat_post(m, term, frozenset((s,)))

    def test_havoc_action_counts(self):
        env = env_for({"x": 3, "y": 3})
        prog = parse_stmts_text("x := any;")
        term = compile_imp(prog, env)
        m = env.kat_model()
        rel = interp_kat(m, term)
        assert all(len(list(rel.succ(s))) == 8 for s in range(m.space.size))


class TestRename:
    def test_rename_is_disjoint(self):
        prog = parse_stmts_text(
            "x := y + 1; if (x > 0) { a[x] := 1; } while (x != 0) { x := x - 1; }")
        renamed = rename_program(prog)
        from bikat.models import block_str
        s = block_str(renamed)
        assert "x_r" in s and "y_r" in s and "a_r" in s
        assert " x " not in s.replace("x_r", "")


class TestProblemFiles:
    def test_width_and_declarations(self):
        prob = load_problem(
            "width 2; vars x; var y:3; array a[2]:1;\n"
            "left { x := 0; } right { x := 1; }\n"
            "kind allall; pre { true } post { true }")
        assert prob.env.space.width_of("x") == 2
        assert prob.env.space.width_of("y") == 3
        assert prob.env.space.width_of(("a", 0)) == 1

    def test_ftable_seed_deterministic(self):
        p1 = load_problem("width 3; vars x; ftable f seed 5;\n"
                          "left { x := f(x); } right { x := f(x); }\n"
                          "kind allall; pre { [x == x] } post { [x == x] }")
        p2 = load_problem("width 3; vars x; ftable f seed 5;\n"
                          "left { x := f(x); } right { x := f(x); }\n"
                          "kind allall; pre { [x == x] } post { [x == x] }")
        assert p1.env.ftables["f"] == p2.env.ftables["f"]

    BITESTS = (
        "[x == x] & L[x <= 1] & !R[y > 0]",  # forced field, left test, residual
        "[x + 1 == y] & R[y != 2]",  # forced by an expression, right test
        "[x < y] & [x <= a[0]] & [a[2] >= a[1]]",  # compared fields
        "[x == y] & [x <= y]",  # forced and compared, same field
        "[x == y] & [x < y]",  # forced and compared, contradictory
        "[y == a[5]] & R[a[4] == 0]",  # constant indices wrap as eval wraps them
        "[a[1] == a[5]]",
        "[x == y] & [y - 1 == y]",  # two equalities on one field
        "[x == a[x]] & [x == x]",  # right side is not one field
        "[x == y] | L[x == 0]",  # not a conjunction: full-product filter
    )

    def test_bitest_forms(self):
        """PairSpec enumerates exactly the pairs that satisfy the bitest."""
        for bitest in self.BITESTS:
            prob = load_problem(
                "width 2; var x:2; var y:2; array a[3]:1;\n"
                "left { skip; } right { skip; }\n"
                f"kind allall;\npre {{ {bitest} }}\npost {{ true }}")
            bm, env, n = prob.bm, prob.env, prob.env.space.size
            for sem in bm.bitests.values():
                if isinstance(sem, ExprBitest):
                    assert sem.lvals() == [env.eval(sem.lexpr, s) for s in range(n)]
                    assert sem.rvals() == [env.eval(sem.rexpr, s) for s in range(n)]
            related = {(a, b) for a in range(n) for b in range(n)
                       if bitest_holds(bm, prob.pre, a, b)}
            spec = PairSpec(bm, prob.pre)
            assert set(spec.pairs()) == related, bitest
            assert len(spec.pairs()) == len(related), bitest
            for a in range(n):
                assert set(spec.partners_left(a)) == {b for (x, b) in related if x == a}, \
                    (bitest, a)

    def test_constant_index_wraps_like_eval_in_judgments(self):
        # a[5] reads cell (5 & 3) % 3 = 1 at width 2
        prob = load_problem(
            "width 2; var y:4; array a[3]:1;\n"
            "left { y := a[1]; } right { y := a[1]; }\n"
            "kind allall; pre { [a[1] == a[5]] } post { [y == y] }")
        res = dispatch(prob.bm, prob.judgment())
        assert res.holds and all(res.routes.values())
        prob = load_problem(
            "width 2; array a[3]:1;\nleft { skip; } right { skip; }\n"
            "kind allall; pre { [a[1] == a[5]] } post { [a[1] == a[1]] }")
        spec = PairSpec(prob.bm, prob.pre)
        assert len(spec.pairs()) == 32
        assert all(bitest_holds(prob.bm, prob.pre, a, b) for a, b in spec.pairs())
        assert dispatch(prob.bm, prob.judgment()).holds

    @pytest.mark.parametrize("decls,left", [
        ("vars x;", "q := 1;"),  # undeclared assignment target
        ("vars x; ftable f;", "x := f(x);"),  # empty function table
        ("vars x;", "x := g(x);"),  # no table for g
        ("vars x;", "a[0] := x;"),  # undeclared array
    ])
    def test_bad_programs_refused_at_load(self, decls, left):
        with pytest.raises(SpaceError):
            load_problem(f"width 2; {decls}\nleft {{ {left} }} right {{ skip; }}\n"
                         "kind allall; pre { true } post { true }")
