"""Numerical toolkit for translating solitons of higher-order mean curvature flows."""

__version__ = "0.1.0"

from . import charts, kernels, maxprinciple, regions, symfun, translators
from .errors import (
    DegenerateODEError,
    DomainError,
    InvalidInputError,
    NearOriginError,
    NumericalError,
    RmcfError,
    SingularPointError,
    StiffFailureError,
)

__all__ = [
    "__version__",
    "charts",
    "kernels",
    "maxprinciple",
    "regions",
    "symfun",
    "translators",
    "RmcfError",
    "InvalidInputError",
    "DomainError",
    "NumericalError",
    "SingularPointError",
    "NearOriginError",
    "DegenerateODEError",
    "StiffFailureError",
]
