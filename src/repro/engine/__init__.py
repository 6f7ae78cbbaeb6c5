"""The transactional engine layer: one commit entry for every write path.

``Engine`` wraps a materialized :class:`~repro.ivm.maintainer.ViewMaintainer`
behind one commit body, :meth:`~repro.engine.engine.Engine.execute`, which
maintains every view within the transaction and, with ``enforce=True``,
rejects assertion violations. Commits are measured with scoped I/O
attribution and journal their applied deltas (inverted only on rollback),
so a failed or rejected transaction rolls back atomically — the shell, CLI,
server, assertion system, group committer, and workload runners all route
their writes through here.
"""

from repro.engine.engine import Engine, EngineError, TransactionResult
from repro.storage.undo import UndoLog

__all__ = ["Engine", "EngineError", "TransactionResult", "UndoLog"]
