"""Exact symbolic verification of Bochner-type identities in 3D
pseudohermitian geometry, with numeric evaluation of the associated
pointwise rigidity conditions."""

from .scalar import ScalarExact
from .expr import Expression, Factor, Term
from .parser import parse, ParseError
from .calculus import (canonicalize, commute_swap, differentiate,
                       equal_mod_ibp, integrate_by_parts)

__all__ = [
    "ScalarExact", "Expression", "Factor", "Term", "parse", "ParseError",
    "canonicalize", "commute_swap", "differentiate", "equal_mod_ibp",
    "integrate_by_parts", "PointData", "HermitianForm",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    # PointData and HermitianForm come from `rigidity`, imported on first use
    # (PEP 562), so importing the package does not import the float path.
    if name in ("PointData", "HermitianForm"):
        from . import rigidity
        return getattr(rigidity, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
