"""Temporal properties: logic AST, PRISM-style parser and trace monitors."""

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
from repro.properties.monitor import Monitor, Verdict
from repro.properties.parser import parse_property

__all__ = [
    "And",
    "Atom",
    "Eventually",
    "FalseFormula",
    "Formula",
    "Globally",
    "Monitor",
    "Next",
    "Not",
    "Or",
    "TrueFormula",
    "Until",
    "UntilSpec",
    "Verdict",
    "parse_property",
]
