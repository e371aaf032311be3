from .terms import (BiKatTerm, BiTestTerm, BPrim, BEmbL, BEmbR, BEmbLTest,
                    BEmbRTest, BTest, BSeq, BPlus, BStar, BAnd, BOr, BNot,
                    BZero, BOne, B0, B1, BT0, BT1, band, bembl, bembr,
                    bisimplify, bitest_side, bnot, bor, bplus, bseq, bstar,
                    btest, emb, emb_pair, emb_test, seq_chain, side_test,
                    sides, term_side, unembed)
from .rewrite import (decode_tagged_kat, distribute_embeddings,
                      encode_to_tagged_kat, lrc_normalize)
from .laws import LawInstance, expand_conditional, expand_lockstep
from .script import (AlignmentScript, ScriptContext, ScriptError,
                     ScriptResult, Step, apply_step, check_script,
                     replace_at, subterm_at)
from .parse import BiAlphabet, parse_biterm, parse_path, parse_script_lines, parse_step
from .decide import BiVerdict, bikat_equiv, biterm_alphabet
