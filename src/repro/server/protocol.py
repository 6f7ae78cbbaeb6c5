"""The wire protocol: one JSON object per line, UTF-8, newline-delimited.

Chosen for the same reason the shell speaks SQL text: it is trivially
scriptable (``nc``-able, even) and every language has a JSON codec.

Requests are objects with an ``op``:

``{"op": "sql", "q": "<statement>"}``
    One SQL statement. DML becomes a single-statement transaction through
    the commit queue; SELECT runs as a snapshot read at a pinned epoch.
``{"op": "txn", "statements": ["<dml>", ...]}``
    Several DML statements staged and committed as **one** transaction
    (all-or-nothing through the group committer).
``{"op": "ping"}`` / ``{"op": "metrics"}`` / ``{"op": "quit"}``
    Liveness, a metrics snapshot, and an orderly goodbye.

Responses always carry ``ok``:

``{"ok": true, ...payload...}``
    ``rows``/``columns`` for SELECT, ``status`` for DML ("committed"),
    ``batch`` (the group-commit batch sequence) when known.
``{"ok": false, "error": "<kind>", "message": "..."}``
    ``error`` is ``"rejected"`` (constraint violation), ``"invalid"``
    (parse/semantic error in the request), or ``"internal"``.
"""

from __future__ import annotations

import json
from typing import Any

#: Upper bound on one protocol line (requests and responses). Bounded so a
#: misbehaving peer cannot balloon the server's read buffer.
MAX_LINE = 1 << 20


class ProtocolError(Exception):
    """A malformed frame (not valid JSON, not an object, or oversized)."""


def encode(message: dict[str, Any]) -> bytes:
    """Serialize one message to its wire frame (JSON + ``\\n``)."""
    frame = json.dumps(message, separators=(",", ":"), default=str).encode("utf-8")
    if len(frame) + 1 > MAX_LINE:
        raise ProtocolError(f"frame of {len(frame)} bytes exceeds MAX_LINE")
    return frame + b"\n"


def decode(line: bytes) -> dict[str, Any]:
    """Parse one wire frame; raises :class:`ProtocolError` on garbage."""
    if len(line) > MAX_LINE:
        raise ProtocolError(f"frame of {len(line)} bytes exceeds MAX_LINE")
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(f"frame must be a JSON object, got {type(message).__name__}")
    return message


def ok(**payload: Any) -> dict[str, Any]:
    """An ``ok`` response with the given payload fields."""
    response: dict[str, Any] = {"ok": True}
    response.update(payload)
    return response


def error(kind: str, message: str) -> dict[str, Any]:
    """An error response; ``kind`` is rejected / invalid / internal."""
    return {"ok": False, "error": kind, "message": message}
