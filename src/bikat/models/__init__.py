from .space import ArrayDecl, SpaceError, StateSpace, VarDecl
from .rel import Rel
from .birel import (BiRel, lift_left, lift_right, pack, proj_left, proj_right,
                    tensor, unpack)
from .kmodel import (ActionSem, FnAction, KatModel, ModelError, RelAction,
                     TestSem, havoc, interp_kat, kat_post, kat_pre,
                     random_kat_model, test_holds, test_mask)
from .bmodel import (AxiomReport, BiModel, BitestSem, bitest_holds,
                     bitest_pairs, bitest_subid, check_projection_axioms,
                     interp_bikat, random_bimodel)
from .imp import (BCmp, BConst, BAndE, BNotE, BOrE, EArr, EBin, ECall, EConst,
                  EVar, ImpEnv, Program, SArrAssign, SAssign, SAssume, SHavoc,
                  SIf, SSkip, SWhile, Stmt, block_str, bool_str, expr_str,
                  stmt_str, subst_expr)
from .traces import BoundedTraceSet, interp_kat_bounded, interp_trace_bounded
