"""Equivalence checking for rewrite rules and transformed modules.

Programs are modelled as configurations (code, variable environment,
function definitions).  A small-step rule catalog drives three things:
a symbolic prover that discharges equivalence goals by circular
coinduction, a concrete interpreter, and randomized before/after
testing for the cases the prover cannot close.
"""

from .config import (
    Config,
    Constraint,
    EqConfig,
    Eq,
    Fresh,
    IsAtom,
    IsVar,
    Matches,
    Neq,
    NotInKeys,
    NotMatches,
    Pure,
    SymDefs,
    SymEnv,
    is_value,
    satisfies,
    term_eq,
)
from .dynamic import dynamic_verify, random_args
from .goals import (
    GoalError,
    goal_from_rule,
    goals_from_application,
    goals_from_dataflow,
)
from .interp import Cutoff, Stuck, Value, interpret
from .prover import ProofGoal, ProofResult, entails, format_trace, replay, scc_prove
from .rules import step_config, try_step

__all__ = [
    "Config",
    "Constraint",
    "Cutoff",
    "Eq",
    "EqConfig",
    "Fresh",
    "GoalError",
    "IsAtom",
    "IsVar",
    "Matches",
    "Neq",
    "NotInKeys",
    "NotMatches",
    "ProofGoal",
    "ProofResult",
    "Pure",
    "Stuck",
    "SymDefs",
    "SymEnv",
    "Value",
    "dynamic_verify",
    "entails",
    "format_trace",
    "goal_from_rule",
    "goals_from_application",
    "goals_from_dataflow",
    "interpret",
    "is_value",
    "random_args",
    "replay",
    "satisfies",
    "scc_prove",
    "step_config",
    "term_eq",
    "try_step",
]
