"""String-level utilities: interning and the file-name noise channel.

Gnutella object names are free-form strings typed by independent users.
The paper observes that the *same* underlying song appears under many
spellings ("Aaron Neville and Linda Ronstad - I Don't Know Much.mp3",
"Aaron Neville ft. Linda Ronstadt - I Don't Know Much.mp3", ...), which
inflates the number of "unique" objects and drives the singleton mass.

:func:`mangle_name` is the synthetic counterpart: given a canonical
name it applies a randomized chain of the perturbations the paper
catalogs — capitalization, punctuation/dash variants, featuring
credits, parenthetical subtitles and character-level typos.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count, islice

import numpy as np

__all__ = ["StringInterner", "NameNoiseModel", "mangle_name"]


class StringInterner:
    """Bidirectional string <-> int-id mapping.

    The analysis hot paths (replica counting, Jaccard over intervals)
    run on integer ids; strings only exist at the edges.  Interning is
    insertion-ordered, so ids are stable for a fixed input order.
    """

    def __init__(self) -> None:
        self._to_id: dict[str, int] = {}
        self._to_str: list[str] = []

    def intern(self, s: str) -> int:
        """Return the id for ``s``, assigning a fresh one if unseen."""
        ident = self._to_id.get(s)
        if ident is None:
            ident = len(self._to_str)
            self._to_id[s] = ident
            self._to_str.append(s)
        return ident

    def intern_all(self, strings: list[str]) -> np.ndarray:
        """Intern a batch; returns an ``int64`` id array."""
        return self.intern_bulk(strings)

    def intern_bulk(self, strings: list[str]) -> np.ndarray:
        """Bulk-intern fast path: one pass, no per-string method calls.

        Identical semantics to looping :meth:`intern` (insertion order
        assigns ids), but the dict/list lookups are inlined — bulk
        loads like :func:`repro.tracegen.io.load_trace`, which re-intern
        hundreds of thousands of saved names, go through here.
        """
        to_id = self._to_id
        to_str = self._to_str
        ids = np.empty(len(strings), dtype=np.int64)
        for i, s in enumerate(strings):
            ident = to_id.get(s)
            if ident is None:
                ident = len(to_str)
                to_id[s] = ident
                to_str.append(s)
            ids[i] = ident
        return ids

    def lookup(self, ident: int) -> str:
        """Inverse mapping (raises ``IndexError`` for unknown ids)."""
        return self._to_str[ident]

    def get(self, s: str) -> int | None:
        """Id for ``s`` or ``None`` if never interned."""
        return self._to_id.get(s)

    def __len__(self) -> int:
        return len(self._to_str)

    def __contains__(self, s: str) -> bool:
        return s in self._to_id

    def strings(self) -> list[str]:
        """All interned strings in id order (a copy)."""
        return list(self._to_str)


@dataclass(frozen=True)
class NameNoiseModel:
    """Probabilities of each perturbation applied by :func:`mangle_name`.

    The default mix is calibrated (see the tracegen tests) so that a
    Gnutella-scale trace reproduces the paper's headline numbers: ~70%
    of observed names are singletons and sanitization (lower-casing +
    stripping punctuation) recovers only a small sliver of uniqueness
    (8.1M -> 7.9M unique in the paper), because most variants differ at
    the *term* level, not merely in case or punctuation.
    """

    p_case: float = 0.10  # random re-capitalization
    p_punct: float = 0.08  # dash / underscore / dot separators
    p_featuring: float = 0.18  # append a "ft. <artist>" credit
    p_subtitle: float = 0.15  # parenthetical subtitle
    p_typo: float = 0.25  # single-character typo
    p_drop_term: float = 0.12  # drop one leading term ("Aaron - ...")

    def __post_init__(self) -> None:
        for name in (
            "p_case",
            "p_punct",
            "p_featuring",
            "p_subtitle",
            "p_typo",
            "p_drop_term",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")


_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def _random_case(s: str, rng: np.random.Generator) -> str:
    style = rng.integers(0, 3)
    if style == 0:
        return s.upper()
    if style == 1:
        return s.title()
    return s.lower()


# Byte -> 1 for the ASCII letters, 0 otherwise: on ASCII text this is
# exactly ``str.isalpha``.
_ASCII_LETTER_FLAGS = bytes(
    int(chr(b).isascii() and chr(b).isalpha()) for b in range(256)
)


def _typo(s: str, rng: np.random.Generator) -> str:
    # ``rng.integers(0, n)`` is the draw ``rng.choice`` makes over an
    # n-element list, without its per-call array conversion.
    if s.isascii():
        flags = s.encode("ascii").translate(_ASCII_LETTER_FLAGS)
        n_letters = flags.count(1)
        if not n_letters:
            return s
        k = int(rng.integers(0, n_letters))
        # Position of the k-th letter, found in C: no per-character
        # Python loop.
        i = next(islice(compress(count(), flags), k, None))
    else:
        letters = [i for i, ch in enumerate(s) if ch.isalpha()]
        if not letters:
            return s
        i = letters[rng.integers(0, len(letters))]
    op = rng.integers(0, 3)
    if op == 0:  # substitute
        repl = _ALPHABET[rng.integers(0, 26)]
        return s[:i] + repl + s[i + 1 :]
    if op == 1:  # delete
        return s[:i] + s[i + 1 :]
    # duplicate
    return s[:i] + s[i] + s[i:]


def mangle_name(
    canonical: str,
    rng: np.random.Generator,
    *,
    noise: NameNoiseModel | None = None,
    featuring_pool: list[str] | None = None,
    subtitle_pool: list[str] | None = None,
) -> str:
    """Produce one observed spelling of ``canonical``.

    With all probabilities zero this is the identity, so replicas of a
    popular object collide on the same string — exactly what the
    paper's replica counting needs.
    """
    noise = noise or NameNoiseModel()
    # Perturb the stem only; the extension is re-appended at the end so
    # credits/subtitles land before it, as they do in real names.
    dot = canonical.rfind(".")
    if dot > 0 and len(canonical) - dot <= 5:
        name, ext = canonical[:dot], canonical[dot:]
    else:
        name, ext = canonical, ""
    if featuring_pool and rng.random() < noise.p_featuring:
        name = f"{name} ft. {featuring_pool[rng.integers(0, len(featuring_pool))]}"
    if subtitle_pool and rng.random() < noise.p_subtitle:
        name = f"{name} ({subtitle_pool[rng.integers(0, len(subtitle_pool))]})"
    if rng.random() < noise.p_drop_term:
        parts = name.split(" ")
        if len(parts) > 2:
            drop = int(rng.integers(0, min(2, len(parts) - 1)))
            parts.pop(drop)
            name = " ".join(parts)
    if rng.random() < noise.p_typo:
        name = _typo(name, rng)
    if rng.random() < noise.p_case:
        name = _random_case(name, rng)
    if rng.random() < noise.p_punct:
        sep = ["-", "_", "."][rng.integers(0, 3)]
        name = name.replace(" ", sep)
    return name + ext
