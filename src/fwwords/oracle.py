"""Ground-truth engine: equivalence closure of the period constraints.

Positions of a word with periods P are forced equal in groups: the connected
components of the graph whose edges join positions at distance min(P) or at
distance p for any p in P. Labeling every position with the smallest member
of its component gives, directly from the definition, the word of maximal
alphabet with those periods. This is the simple-but-slow reference that the
reduction engine in `fwwords.reduction` is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import OutOfRangeError, TooLargeForExhaustiveError
from .periods import PeriodSet
from .words import Word, has_period

EXHAUSTIVE_BOUND = 9
ORACLE_MAX_LENGTH = 10**7  # most positions a command may ask of the oracle, whose state is O(n) lists


class UnionFind:
    """Disjoint sets over 0..n-1 with path compression and union by size."""

    __slots__ = ("parent", "size")

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, i: int) -> int:
        parent = self.parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return
        if self.size[ri] < self.size[rj]:
            ri, rj = rj, ri
        self.parent[rj] = ri
        self.size[ri] += self.size[rj]


@dataclass(frozen=True)
class EquivalencePartition:
    """Partition of {0..length-1}; reps[i] is the smallest position equivalent to i."""

    length: int
    reps: Word

    def class_count(self) -> int:
        return len(set(self.reps))

    def classes(self) -> list[tuple[int, ...]]:
        """The classes themselves, each ascending, ordered by their minima."""
        by_rep: dict[int, list[int]] = {}
        for i, r in enumerate(self.reps):
            by_rep.setdefault(r, []).append(i)
        return [tuple(by_rep[r]) for r in sorted(by_rep)]


def build_partition(periods: PeriodSet, k: int) -> EquivalencePartition:
    """Group positions {0..k-1} that any word with these periods must letter alike.

    The defining relation also equates i and j whenever representatives
    i' = i (mod m) and j' = j (mod m), m = min(periods), sit at distance p
    for some period p. Generating edges as single steps i ~ i+m and
    i ~ i+p suffices: a congruence step between in-range endpoints splits
    into in-range m-steps (the chain is monotone between its endpoints),
    and the two-sided form decomposes into m-steps plus one direct p-edge,
    so the closures coincide. Periods >= k yield no in-range edge and drop
    out on their own.

    Representatives are class minima, recovered in one ascending scan after
    all unions. O(k) memory.
    """
    uf = UnionFind(k)
    for p in periods:
        for i in range(k - p):
            uf.union(i, i + p)
    min_of_root: dict[int, int] = {}
    roots = [uf.find(i) for i in range(k)]
    for i, root in enumerate(roots):
        if root not in min_of_root:
            min_of_root[root] = i
    return EquivalencePartition(k, tuple(min_of_root[root] for root in roots))


def fw_oracle(periods: PeriodSet, n: int) -> Word:
    """The length-n word with every period in `periods` and the largest alphabet.

    Unique up to renaming of letters; returned in canonical labeling (each
    letter is the smallest position of its class, so letter v first occurs
    at position v). Costs O(n * len(periods)); use `fwwords.reduction.fw_fast`
    for the same word at large n.
    """
    if n < 0:
        raise OutOfRangeError(f"length must be >= 0, got {n}")
    return build_partition(periods, n).reps


def class_count(periods: PeriodSet, n: int) -> int:
    """Alphabet size of fw_oracle(periods, n) without keeping the word."""
    return build_partition(periods, n).class_count()


@lru_cache(maxsize=16)
def _partition_words(n: int) -> tuple[Word, ...]:
    # Every set partition of {0..n-1}, written as the word that labels each
    # position with the smallest member of its block. Bell(n) entries.
    words: list[Word] = []
    current = [0] * n

    def fill(i: int, labels: tuple[int, ...]) -> None:
        if i == n:
            words.append(tuple(current))
            return
        for label in labels:
            current[i] = label
            fill(i + 1, labels)
        current[i] = i
        fill(i + 1, labels + (i,))

    fill(0, ())
    return tuple(words)


def max_alphabet_exhaustive(
    periods: PeriodSet, n: int, bound: int = EXHAUSTIVE_BOUND
) -> tuple[int, tuple[Word, ...]]:
    """Brute-force maximum alphabet size over ALL length-n words with the periods.

    Enumerates every set partition of the n positions, keeps those whose
    min-labeled word has every period, and returns the best class count with
    every maximizer (canonical labeling). Independent of the union-find
    path, so it can vouch for fw_oracle's maximality and uniqueness claims.
    """
    if n > bound:
        raise TooLargeForExhaustiveError(f"n={n} exceeds exhaustive bound {bound}")
    best = -1
    witnesses: list[Word] = []
    for w in _partition_words(n):
        if all(has_period(w, p) for p in periods):
            count = len(set(w))
            if count > best:
                best, witnesses = count, [w]
            elif count == best:
                witnesses.append(w)
    return best, tuple(witnesses)
