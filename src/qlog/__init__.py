"""qlog: a workbench for an affine sensitivity calculus over complete
metric spaces.

The package typechecks, evaluates and proof-checks programs and
quantitative judgments whose truth values live in [0, 1] (0 = true),
and reproduces a set of quantitative case studies numerically:
behavioral distances of Markov processes, a temporal-difference
contraction bound, a coupling argument for the hypercube walk, and
error-credit accounting for relational Hoare triples.
"""

from .grades import Grade, INF, ONE, ZERO, oplus, scale_prop, wand
from .measures import (
    Coupling,
    Dist,
    convex,
    dirac,
    kantorovich,
    lift_relation,
    optimal_coupling,
    pushforward,
    total_variation,
)
from .parser import parse_file, parse_term, parse_type
from .printer import print_term, print_type
from .terms import TypeCtx, alpha_eq, ctx_add, ctx_scale, is_mixture_type
from .typecheck import Checker, TypeCheckError
from .evaluator import EnumSpec, EvalConfig, EvalError, Evaluator
from .values import Approx
from .normalize import judgmental_equal, normal_form
from .logic import (
    Derivation,
    LogicJudgment,
    check_derivation,
    check_semantic,
    coupling_value,
)
from .processes import behavioral_distance, bisimilarity_distance
from .td import MDP, td_contraction_check, td_step
from .hypercube import hwalk, hypercube_contraction_check, hypercube_sigma
from .imp import Program, Store, eval_cmd, eval_expr, parse_imp
from .hoare import prp_prf_check, triple_value

__all__ = [
    "Approx",
    "Checker",
    "Coupling",
    "Derivation",
    "Dist",
    "EnumSpec",
    "EvalConfig",
    "EvalError",
    "Evaluator",
    "Grade",
    "INF",
    "LogicJudgment",
    "MDP",
    "ONE",
    "Program",
    "Store",
    "TypeCheckError",
    "TypeCtx",
    "ZERO",
    "alpha_eq",
    "behavioral_distance",
    "bisimilarity_distance",
    "check_derivation",
    "check_semantic",
    "convex",
    "coupling_value",
    "ctx_add",
    "ctx_scale",
    "dirac",
    "eval_cmd",
    "eval_expr",
    "hwalk",
    "hypercube_contraction_check",
    "hypercube_sigma",
    "is_mixture_type",
    "judgmental_equal",
    "kantorovich",
    "lift_relation",
    "normal_form",
    "oplus",
    "optimal_coupling",
    "parse_file",
    "parse_imp",
    "parse_term",
    "parse_type",
    "print_term",
    "print_type",
    "prp_prf_check",
    "pushforward",
    "scale_prop",
    "td_contraction_check",
    "td_step",
    "total_variation",
    "triple_value",
    "wand",
]
