"""Learned search-method selection (paper §VI, ref [20]).

Zaharia & Keshav's GAB selects *which* search mechanism to use per
query — flood for popular content, structured lookup for rare — using
information gossiped about past outcomes.  We reproduce the decision
layer: a selector keeps an exponentially-weighted estimate of flood
success per query term and routes each query to the flood or the DHT
accordingly; the X-SELECT bench compares it against the static
strategies and the oracle.

Under the paper's workload the selector converges to "almost always
DHT" — the learned confirmation of the §VII position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.stats import sorted_unique

__all__ = ["SelectorConfig", "MethodSelector", "SelectionStats"]


@dataclass(frozen=True)
class SelectorConfig:
    """Selector learning parameters."""

    #: EWMA weight of the newest observation.
    learning_rate: float = 0.3
    #: optimistic prior flood-success estimate (try floods initially).
    prior: float = 0.5
    #: flood when the estimated success exceeds this threshold.
    flood_threshold: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 <= self.prior <= 1.0:
            raise ValueError("prior must be a probability")
        if not 0.0 <= self.flood_threshold <= 1.0:
            raise ValueError("flood_threshold must be a probability")


class MethodSelector:
    """Per-term flood-success estimator driving method selection.

    A query's flood-success estimate is the *minimum* over its terms
    (AND semantics: the rarest term caps the flood's chance).
    """

    def __init__(self, n_terms: int, config: SelectorConfig | None = None) -> None:
        if n_terms < 1:
            raise ValueError("n_terms must be positive")
        self.config = config or SelectorConfig()
        self.estimates = np.full(n_terms, self.config.prior, dtype=np.float64)
        self.observations = np.zeros(n_terms, dtype=np.int64)

    def estimate(self, term_ids: np.ndarray) -> float:
        """Estimated flood success for a query (min over terms)."""
        term_ids = np.asarray(term_ids, dtype=np.int64)
        if term_ids.size == 0:
            raise ValueError("a query needs at least one term")
        return float(self.estimates[term_ids].min())

    def choose(self, term_ids: np.ndarray) -> str:
        """``"flood"`` or ``"dht"`` for this query."""
        return (
            "flood"
            if self.estimate(term_ids) >= self.config.flood_threshold
            else "dht"
        )

    def observe(self, term_ids: np.ndarray, flood_succeeded: bool) -> None:
        """Feed back one flood outcome (gossip delivers these too)."""
        lr = self.config.learning_rate
        ids = sorted_unique(np.asarray(term_ids, dtype=np.int64))
        target = 1.0 if flood_succeeded else 0.0
        self.estimates[ids] = (1 - lr) * self.estimates[ids] + lr * target
        self.observations[ids] += 1


@dataclass(frozen=True)
class SelectionStats:
    """Aggregate outcome of one selection strategy over a replay."""

    name: str
    success_rate: float
    mean_messages: float
    flood_fraction: float

    def as_row(self) -> tuple[str, str, str, str]:
        """Row form for table rendering."""
        return (
            self.name,
            f"{self.success_rate:.3f}",
            f"{self.mean_messages:,.0f}",
            f"{self.flood_fraction:.2f}",
        )
