"""Small shared utilities: RNG management, a wall-clock stopwatch, tables, logging."""

from repro.utils.rng import RngPool, seed_everything, spawn_rng
from repro.utils.timer import Stopwatch
from repro.utils.tables import format_series, format_table

__all__ = [
    "RngPool",
    "seed_everything",
    "spawn_rng",
    "Stopwatch",
    "format_table",
    "format_series",
]
