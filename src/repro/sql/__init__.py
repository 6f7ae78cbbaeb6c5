"""SQL frontend: lexer, parser, and translation to the algebra."""

from repro.sql.dml import dml_to_delta, is_dml
from repro.sql.lexer import SQLSyntaxError, tokenize
from repro.sql.parser import parse
from repro.sql.translate import SQLTranslationError, TranslationResult, translate_sql

__all__ = [
    "SQLSyntaxError",
    "dml_to_delta",
    "is_dml",
    "SQLTranslationError",
    "TranslationResult",
    "parse",
    "tokenize",
    "translate_sql",
]
