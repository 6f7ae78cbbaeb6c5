"""Storage engine: stored relations, hash indexes, page-I/O accounting."""

from repro.storage.database import Database
from repro.storage.histograms import Histogram
from repro.storage.index import HashIndex
from repro.storage.pager import IOCounter, IOStats
from repro.storage.relation import StorageError, StoredRelation
from repro.storage.statistics import Catalog, TableStats

__all__ = [
    "Catalog",
    "Database",
    "HashIndex",
    "Histogram",
    "IOCounter",
    "IOStats",
    "StorageError",
    "StoredRelation",
    "TableStats",
]
