"""Shared result types for the two TeraHAC engines (and SCC)."""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.dendrogram import Dendrogram


@dataclass
class RoundStats:
    """Per-round graph state, the quantities behind Figs 11/14/15."""

    round: int
    n_vertices: int
    n_edges: int
    n_heavy: int
    n_merges: int
    n_good: int | None = None  # (1+eps)-good edges before the round's merges


@dataclass
class TeraHACResult:
    """Output of a TeraHAC run: the dendrogram plus round telemetry."""

    dendrogram: Dendrogram
    rounds: int
    stats: list[RoundStats] = field(default_factory=list)
    forced_merges: int = 0  # always 0: no round can stall (graphs/affinity.py)
