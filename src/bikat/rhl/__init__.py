from .proof import (ImplicationHypothesis, NodeReport, ProofResult, ProofTree,
                    RelHypothesis, RhlContext, RhlJudgment, SchemaError,
                    SideCondition, check_implication, check_proof,
                    discharge_side_condition, premise_judgments,
                    rel_bitest_term, substitute_bitest)
from .selfcomp import check_selfcomp
from .parse import parse_proof
