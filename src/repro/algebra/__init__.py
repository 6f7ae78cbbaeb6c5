"""Relational algebra substrate: schemas, expressions, operators, evaluation.

Public API re-exports the pieces most users need to define views
programmatically; the SQL frontend (:mod:`repro.sql`) builds the same
structures from text.
"""

from repro.algebra.evaluate import MappingSource, evaluate
from repro.algebra.multiset import Multiset, Row
from repro.algebra.operators import (
    AggSpec,
    AlgebraError,
    Difference,
    GroupAggregate,
    Join,
    Project,
    RelExpr,
    Scan,
    Select,
    Union,
    natural_join,
    project_columns,
)
from repro.algebra.predicates import (
    And,
    Compare,
    Not,
    Or,
    Predicate,
    TruePred,
    conjunction,
)
from repro.algebra.scalar import Arith, Col, Const, Scalar, col, lit
from repro.algebra.schema import Column, Schema, SchemaError
from repro.algebra.tree import render_tree, rewrite_bottom_up, subexpressions
from repro.algebra.types import DataType, TypeError_

__all__ = [
    "AggSpec",
    "AlgebraError",
    "And",
    "Arith",
    "Col",
    "Column",
    "Compare",
    "Const",
    "DataType",
    "Difference",
    "GroupAggregate",
    "Join",
    "MappingSource",
    "Multiset",
    "Not",
    "Or",
    "Predicate",
    "Project",
    "RelExpr",
    "Row",
    "Scalar",
    "Scan",
    "Schema",
    "SchemaError",
    "Select",
    "TruePred",
    "TypeError_",
    "Union",
    "col",
    "conjunction",
    "evaluate",
    "lit",
    "natural_join",
    "project_columns",
    "render_tree",
    "rewrite_bottom_up",
    "subexpressions",
]
