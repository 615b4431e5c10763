"""MILP solving stack: simplex, branch and bound, MPS writer, verification."""

from .bnb import BnbSolution, branch_and_bound
from .mps import write_mps
from .simplex import LpSolution, solve_lp
from .solution import PlanSolution, extract_solution
from .verify import VerifyReport, check_solution

__all__ = [
    "BnbSolution", "branch_and_bound", "write_mps",
    "LpSolution", "solve_lp", "PlanSolution", "extract_solution",
    "VerifyReport", "check_solution",
]
