"""Temporal properties: logic AST, PRISM-style parser and lockstep mask rules."""

from repro.properties.logic import (
    And,
    Atom,
    Eventually,
    FalseFormula,
    Formula,
    Globally,
    Next,
    Not,
    Or,
    TrueFormula,
    Until,
    UntilSpec,
)
from repro.properties.parser import parse_property

__all__ = [
    "And",
    "Atom",
    "Eventually",
    "FalseFormula",
    "Formula",
    "Globally",
    "Next",
    "Not",
    "Or",
    "TrueFormula",
    "Until",
    "UntilSpec",
    "parse_property",
]
