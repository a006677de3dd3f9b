"""Ground-truth engine: equivalence closure of the period constraints.

Positions of a word with periods P are forced equal in groups: the classes of
the relation that joins positions congruent mod m = min(P), and positions
whose residues have in-range representatives a period apart. Labeling every
position with the smallest member of its class gives, directly from the
definition, the word of maximal alphabet with those periods. The closure is
a search over the residues mod m that never reduces the period set, so it
stays independent of the reduction engine in `fwwords.reduction` that it is
checked against. The word is those residue labels (`residue_labels`),
extended with period m: as the letters are the class minima, the word itself
names each position's class.
"""

from __future__ import annotations

from .errors import OutOfRangeError
from .periods import PeriodSet
from .words import Word, check_prefix_size, extend_periodically


def residue_labels(periods: PeriodSet, k: int) -> Word:
    """The class labels of the min(m, k) residues mod m = min(periods) at length k.

    The defining relation equates i and j when i = j (mod m), or when
    in-range representatives of their residues sit at distance p for some
    period p. The first clause needs no search: the edges i ~ i+m already
    join each residue class. Since residue x's smallest position is x
    itself, a period p joins x to (x + p) % m exactly when x + p < k, and
    (x - p) % m = y to x exactly when y + p < k. Periods >= k yield no edge
    and drop out.

    One ascending search over the residues: each residue not yet labeled
    starts a class and labels it with its own index, which is the class
    minimum. The word repeats those labels with period m; over ORACLE_MAX_LENGTH are refused first.
    """
    if k < 0:
        raise OutOfRangeError(f"length must be >= 0, got {k}")
    check_prefix_size(periods, k)
    m = periods.min_period
    edges = [(p % m, k - p) for p in periods.periods[1:]]
    labels = [-1] * min(m, k)
    for start in range(len(labels)):
        if labels[start] >= 0:
            continue
        labels[start] = start
        stack = [start]
        while stack:
            x = stack.pop()
            for step, limit in edges:
                down = (x - step) % m
                # a direction with no edge maps to x, which is already labeled
                for z in ((x + step) % m if x < limit else x, down if down < limit else x):
                    if labels[z] < 0:
                        labels[z] = start
                        stack.append(z)
    return tuple(labels)


def fw_oracle(periods: PeriodSet, n: int) -> Word:
    """The length-n word with every period in `periods` and the largest alphabet.

    Unique up to renaming of letters; returned in canonical labeling (each
    letter is the smallest position of its class, so letter v first occurs
    at position v). Costs O(min(m, n) * len(periods) + n) with m = min(periods);
    use `fwwords.reduction.fw_fast` for the same word at large n; both refuse min(m, n) > ORACLE_MAX_LENGTH.
    """
    return extend_periodically(residue_labels(periods, n), n)
