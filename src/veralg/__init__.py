"""Exact verbal-operation calculus on truncated free linear algebras.

The top level re-exports the names of the README's library example and
check_op2; everything else is imported from its submodule.
"""

from . import cases
from .closure import gen_constraints, ideal_build
from .freealg import GeneratorSet, parse_element
from .scalars import FieldSpec
from .variety import build_truncated, builtin_variety
from .verbal import VerbalSystem, check_op2

__all__ = [
    "FieldSpec",
    "GeneratorSet",
    "VerbalSystem",
    "build_truncated",
    "builtin_variety",
    "cases",
    "check_op2",
    "gen_constraints",
    "ideal_build",
    "parse_element",
]
