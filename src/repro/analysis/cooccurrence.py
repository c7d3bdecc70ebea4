"""Term co-occurrence analysis.

Multi-term (AND) matching succeeds only when a file carries the whole
term *combination*, so the statistic that matters is not how popular
individual terms are (Fig. 3) but how often they appear together.
This module measures pairwise co-occurrence in a CSR term corpus —
names or queries — and the pointwise mutual information of pairs,
quantifying how much rarer combinations are than independence would
predict (title terms co-occur by construction; query terms are near-
independent draws, which is exactly why A-MULTITERM's penalty bites).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.stats import ragged_arange, sorted_unique

__all__ = ["CooccurrenceStats", "pair_counts", "cooccurrence_stats"]


def pair_counts(
    offsets: np.ndarray, term_ids: np.ndarray, *, max_group: int = 16
) -> dict[tuple[int, int], int]:
    """Count unordered term pairs co-occurring within CSR groups.

    Groups longer than ``max_group`` are truncated (quadratic blowup
    guard; file names and queries are short anyway).  Duplicate terms
    within a group count once.
    """
    if max_group < 2:
        raise ValueError("max_group must be at least 2")
    offsets = np.asarray(offsets, dtype=np.int64)
    counts: dict[tuple[int, int], int] = {}
    for g in range(offsets.size - 1):
        terms = sorted_unique(term_ids[offsets[g] : offsets[g + 1]])[:max_group]
        for i in range(terms.size):
            for j in range(i + 1, terms.size):
                key = (int(terms[i]), int(terms[j]))
                counts[key] = counts.get(key, 0) + 1
    return counts


@dataclass(frozen=True)
class CooccurrenceStats:
    """Summary of a corpus's pairwise term structure."""

    n_groups: int
    n_distinct_pairs: int
    #: mean PMI over the most frequent pairs (nats).
    mean_top_pmi: float
    #: the most frequent pairs as ((term_a, term_b), count).
    top_pairs: list[tuple[tuple[int, int], int]]

    @property
    def pairs_per_group(self) -> float:
        """Distinct observed pairs per group — corpus combinatorial density."""
        return self.n_distinct_pairs / max(1, self.n_groups)


def cooccurrence_stats(
    offsets: np.ndarray,
    term_ids: np.ndarray,
    *,
    top_k: int = 50,
    max_group: int = 16,
) -> CooccurrenceStats:
    """Compute pairwise statistics for one CSR corpus.

    PMI of a pair (a, b): ``log(P(a,b) / (P(a) P(b)))`` with all
    probabilities per *group*.  Positive PMI = the pair co-occurs more
    than independent popularity predicts (title structure); PMI near 0
    = independent draws (the query model's base stream).
    """
    if top_k < 1:
        raise ValueError("top_k must be positive")
    offsets = np.asarray(offsets, dtype=np.int64)
    n_groups = offsets.size - 1
    if n_groups < 1:
        raise ValueError("empty corpus")
    pairs = pair_counts(offsets, term_ids, max_group=max_group)
    if not pairs:
        return CooccurrenceStats(n_groups, 0, float("nan"), [])

    # Per-group term presence counts (for marginal probabilities).
    lengths = np.diff(offsets)
    group_of = np.repeat(np.arange(n_groups, dtype=np.int64), lengths)
    n_terms = int(term_ids.max()) + 1 if term_ids.size else 0
    uniq = sorted_unique(term_ids.astype(np.int64) * n_groups + group_of)
    presence = np.bincount((uniq // n_groups).astype(np.int64), minlength=n_terms)

    ranked = sorted(pairs.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
    pmis = []
    for (a, b), c in ranked:
        p_ab = c / n_groups
        p_a = presence[a] / n_groups
        p_b = presence[b] / n_groups
        pmis.append(np.log(p_ab / (p_a * p_b)))
    return CooccurrenceStats(
        n_groups=n_groups,
        n_distinct_pairs=len(pairs),
        mean_top_pmi=float(np.mean(pmis)),
        top_pairs=ranked,
    )
