"""Point the interpreters the tests start (`python -m fwwords`, `python -c`)
at this checkout's `src`, as `pythonpath` in pyproject.toml does for the
tests themselves; render the literal chain that `chain` must print; and
search every word for the largest alphabet, which vouches for the oracle."""

import os
from pathlib import Path

import pytest

from fwwords import PeriodSet, Word

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture(scope="session")
def render_chain():
    """A ReductionChain as `chain` prints it, less the final newline: one line
    per step, `Qi={...} ni=<len>`, then the termination tag."""

    def render(chain):
        lines = [f"Q{idx}={{{','.join(map(str, ps))}}} n{idx}={length}" for idx, (ps, length) in enumerate(chain.steps)]
        lines.append(chain.termination.value)
        return "\n".join(lines)

    return render


@pytest.fixture(scope="session")
def max_alphabet_exhaustive():
    """The brute-force maximality search over every word, which has no bound:
    C7's grid branches on at most 8 positions, Bell(8) = 4,140 prefixes."""

    def max_alphabet_exhaustive(periods: PeriodSet, n: int) -> tuple[int, tuple[Word, ...]]:
        """Brute-force maximum alphabet size over ALL length-n words with the periods.

        Fills positions left to right from the definition of a period. Each of the
        first b = min(min(periods), n) takes every open block, then a new one:
        Bell(b) prefixes. Past them w[i] = w[i-p] is forced for every period
        p <= i, and a branch that breaks it is cut, as no later position can
        repair it; each prefix extends in O(n * len(periods)). Returns the best
        class count with every maximizer (canonical labeling). Independent of the
        residue search, so it can vouch for fw_oracle's maximality and uniqueness.
        """
        m = periods.min_period
        branching = min(m, n)
        best = -1
        witnesses: list[Word] = []
        word = [0] * n

        def fill(i: int, labels: tuple[int, ...]) -> None:
            nonlocal best, witnesses
            if i < branching:
                for label in (*labels, i):  # each open block, then a new one
                    word[i] = label
                    fill(i + 1, labels if label < i else (*labels, i))
                return
            for j in range(branching, n):
                word[j] = word[j - m]
                if any(word[j - p] != word[j] for p in periods if p <= j):
                    return
            if len(labels) > best:
                best, witnesses = len(labels), []
            if len(labels) == best:
                witnesses.append(tuple(word))

        fill(0, ())
        return best, tuple(witnesses)

    return max_alphabet_exhaustive
