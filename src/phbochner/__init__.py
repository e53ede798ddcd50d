"""Exact symbolic verification of Bochner-type identities in 3D
pseudohermitian geometry, with numeric evaluation of the associated
pointwise rigidity conditions."""

import importlib

# exported name -> the submodule that defines it
_EXPORTS = {
    "ScalarExact": "scalar",
    "Expression": "expr", "Factor": "expr", "Term": "expr",
    "parse": "parser", "ParseError": "parser",
    "canonicalize": "calculus", "commute_swap": "calculus",
    "differentiate": "calculus", "equal_mod_ibp": "calculus",
    "integrate_by_parts": "calculus",
    "PointData": "rigidity", "HermitianForm": "rigidity",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    # Every export is imported on first use (PEP 562), so importing the
    # package, or one submodule such as `phbochner.cli`, loads nothing else.
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__),
                       name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
