"""SQL-92 assertion (complex integrity constraint) checking."""

from repro.constraints.assertions import AssertionSystem, AssertionViolation

__all__ = ["AssertionSystem", "AssertionViolation"]
