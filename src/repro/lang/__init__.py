"""PRISM-subset modelling language: parse guarded-command models, build chains."""

from repro.lang.builder import (
    StateSpaceBuilder,
    build_ctmc,
    resolve_constants,
)
from repro.lang.parser import parse_expression, parse_model

__all__ = [
    "StateSpaceBuilder",
    "build_ctmc",
    "parse_expression",
    "parse_model",
    "resolve_constants",
]
