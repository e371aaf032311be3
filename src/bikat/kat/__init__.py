from .terms import (Alphabet, CapExceeded, KatError, KatTerm, TestTerm,
                    kact, kplus, kseq, kstar, ktest, simplify, simplify_test,
                    tand, tnot, tor, tprim, K0, K1, T0, T1)
from .guarded import atoms, enumerate_guarded_strings, eval_test
from .decide import (Verdict, ZeroHypothesis, eliminate_zero_hypotheses,
                     gs_member, hoare_valid, kat_equiv, kat_leq)
from .parse import ParseError, parse_term, parse_test
