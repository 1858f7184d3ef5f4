"""Online multiple testing with super-uniformity rewards for discrete tests."""

from .core import IDENTITY_BOUND, Decision, StepCdf
from .discrete import ContingencyTable2x2, ExactTestResult, fisher_two_sided, support_to_bound
from .procedures import OnlineProcedure, ProcedureConfig, make_procedure
from .spending import (
    SpendingSequence,
    make_explicit,
    make_greedy,
    make_jm_family,
    make_kernel,
    make_log_family,
    make_power_law,
)

__all__ = [
    "Decision",
    "IDENTITY_BOUND",
    "StepCdf",
    "ContingencyTable2x2",
    "ExactTestResult",
    "fisher_two_sided",
    "support_to_bound",
    "OnlineProcedure",
    "ProcedureConfig",
    "make_procedure",
    "SpendingSequence",
    "make_explicit",
    "make_greedy",
    "make_jm_family",
    "make_kernel",
    "make_log_family",
    "make_power_law",
]

__version__ = "0.1.0"
