"""dyncomplab — dynamic quantifier-free / first-order update programs.

Maintain query answers over a changing relational structure using
per-change update rules, with exact oracles, auditable auxiliary state,
low-level first-order engines, symmetric circuit evaluation, and
graph constructions for experiments.
"""

from .structures import (Change, ChangeScript, Checkpoint, CHECKPOINT,
                         DynLabError, Structure, apply_change, coloured_graph,
                         format_script, format_structure, is_effective,
                         parse_script, parse_structure)
from .formulas import (atom, classify, evaluate, free_variables, parse_formula,
                       pretty)
from .interpreter import (DynamicProgram, ProgramState, UpdateRule,
                          format_program, init_state, make_program,
                          parse_program, step, validate)
from .oracle import QueryId, covered_set, eval_query, n_exists_forall
from .driver import drive

__version__ = "0.1.0"

__all__ = [
    "Change", "ChangeScript", "Checkpoint", "CHECKPOINT", "DynLabError",
    "Structure", "apply_change", "coloured_graph", "format_script",
    "format_structure", "is_effective", "parse_script", "parse_structure",
    "atom", "classify", "evaluate", "free_variables", "parse_formula",
    "pretty", "DynamicProgram", "ProgramState", "UpdateRule",
    "format_program", "init_state", "make_program", "parse_program", "step",
    "validate", "QueryId", "covered_set", "eval_query", "n_exists_forall",
    "drive", "__version__",
]
