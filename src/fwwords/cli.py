"""Command-line front end.

Exit codes: 0 success, 1 self-test failure, 2 usage, input or output error. All
output is deterministic; `ints` and `dense` word renderings are bit-exact
with a single trailing newline.
"""

from __future__ import annotations

import argparse
import operator
import os
import sys
from collections.abc import Callable, Iterator
from itertools import chain

from .periods import PeriodSet
from .reduction import chain_jumps, extremal_length, generating_prefix, letter_at
from .words import extend_periodically

# What only some commands run (the oracle, bench, selftest, json) is imported
# in their handlers, so a query process never loads it.

DENSE_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"
STREAM_CHUNK = 1 << 13  # letters per write of `word`
CHAIN_WRITE_BYTES = 1 << 18  # about the most bytes per write of `chain`, whose lines widen with their digits


def _parse_periods(text: str) -> PeriodSet:
    return PeriodSet(int(part) for part in text.split(","))


def _extension_pieces(prefix: tuple[int, ...], n: int, token: Callable[[int], str], sep: str) -> Iterator[str]:
    """The length-n periodic extension of prefix (n >= len(prefix) > 0), whole copies then prefix[:rest],
    rendered letter by letter with `token` and joined by `sep`, in pieces of at most STREAM_CHUNK
    letters; the pieces themselves are to be joined by `sep`."""
    chunk = STREAM_CHUNK
    reps = min(chunk, n) // len(prefix)
    if reps > 1:
        # the same extension, generated by about one chunk: one rendering serves every write
        prefix = extend_periodically(prefix, reps * len(prefix))
    copies, rest = divmod(n, len(prefix))

    def render(end: int) -> Iterator[str]:  # the slices of prefix[:end]
        for i in range(0, end, chunk):
            yield sep.join(map(token, prefix[i : min(i + chunk, end)]))

    slices = list(render(len(prefix))) if copies > 1 else render(len(prefix))  # a copy written once streams
    for _ in range(copies):
        yield from slices
    yield from render(rest)


def _cmd_word(args: argparse.Namespace) -> int:
    ps = _parse_periods(args.periods)
    n = args.length
    # The word is the periodic extension of `prefix`: the oracle's min(min P, n) residue labels, or the fast engine's
    # generating prefix of at most as many letters (a trivial word's is its residues mod gcd); each keeps the size rule.
    if args.engine == "oracle":
        from .oracle import residue_labels

        prefix = residue_labels(ps, n)
    else:
        prefix = generating_prefix(ps, n)
    token, sep, head, tail = str, " ", "", ""
    if args.format == "dense":
        if max(prefix, default=0) >= len(DENSE_DIGITS):
            raise ValueError("AlphabetTooLargeForDense: dense mode needs every letter below 36")
        token, sep = DENSE_DIGITS.__getitem__, ""
    elif args.format == "json":
        import json

        # both engines label a letter by its first position, so new letters equal their position; each class lies in one
        # residue mod the gcd (it divides every period): past the gcd, the word has period gcd iff it has gcd letters
        size = sum(map(operator.eq, prefix, range(len(prefix))))
        doc = {
            "periods": list(ps.periods),
            "length": n,
            "letters": [],
            "alphabet_size": size,
            "trivial": n <= ps.gcd or size == ps.gcd,
        }
        head, tail = json.dumps(doc).split('"letters": []')
        head, tail, sep = head + '"letters": [', "]" + tail, ", "
    write = sys.stdout.write
    write(head)
    if n > 0:
        pieces = _extension_pieces(prefix, n, token, sep)
        write(next(pieces))
        for piece in pieces:
            write(sep)
            write(piece)
    write(tail + "\n")
    return 0


def _cmd_at(args: argparse.Namespace) -> int:
    ps = _parse_periods(args.periods)
    print(letter_at(ps, args.length, args.index))
    return 0


def _cmd_extremal(args: argparse.Namespace) -> int:
    value = extremal_length(_parse_periods(args.periods))
    # below (2|P| + 1) max P, the value may pass the int-to-str limit the periods met, but value // 10**64 cannot
    high, low = divmod(value or 0, 10**64)
    print("none" if value is None else f"{high}{low:064d}" if high else low)
    return 0


def _cmd_chain(args: argparse.Namespace) -> int:
    # reduction_chain(...), one line per literal step, formatted per run of steps that share a minimum
    write = sys.stdout.write
    idx = 0
    for periods, length, k, end in chain_jumps(_parse_periods(args.periods), args.length):
        # step s < k is line % (idx + s, *(p - s*m for p in rest), idx + s, length - s*m),
        # with line "Q%d={5,%d} n%d=%d\n" for periods (5, p)
        m, rest = periods[0], periods[1:]
        line = "Q%d={" + ",".join([str(m), *["%d"] * len(rest)]) + "} n%d=%d\n"
        # a write holds CHAIN_WRITE_BYTES of the run's first line (later lines widen only by the step index); one %
        width = len(line % (idx, *rest, idx, length)) if k > 1 else 1
        chunk = max(1, CHAIN_WRITE_BYTES // width)
        for a in range(0, k, chunk):
            b = min(a + chunk, k)
            steps = range(idx + a, idx + b)
            columns = [range(p - a * m, p - b * m, -m) for p in rest]
            lengths = range(length - a * m, length - b * m, -m)
            write((line * (b - a)) % tuple(chain.from_iterable(zip(steps, *columns, steps, lengths))))
        idx += k
    write(f"{end.value}\n")
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import run_selftest

    # an option left out is absent from args, so run_selftest's default applies
    report = run_selftest(**{key: value for key, value in vars(args).items() if key != "handler"})
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import run_bench

    ps = _parse_periods(args.periods)
    rows = run_bench(ps, args.length, args.repetitions)
    if args.format == "json":
        import json

        print(json.dumps({"rows": [row.as_dict() for row in rows]}))
    else:
        for row in rows:
            print(row.render())
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fwwords",
        description="Maximal-alphabet words for a prescribed set of periods.",
    )
    sub = parser.add_subparsers(required=True, metavar="command")

    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = add("word", _cmd_word, "print the whole word for the given periods and length")
    p.add_argument("--periods", required=True, help="comma-separated positive integers, e.g. 5,7")
    p.add_argument("--length", required=True, type=int)
    p.add_argument("--format", choices=("ints", "dense", "json"), default="ints")
    p.add_argument("--engine", choices=("fast", "oracle"), default="fast")

    p = add("at", _cmd_at, "print one letter of the word without building it")
    p.add_argument("--periods", required=True)
    p.add_argument("--length", required=True, type=int)
    p.add_argument("--index", required=True, type=int)

    p = add("extremal", _cmd_extremal, "print the largest non-trivial length, or 'none'")
    p.add_argument("--periods", required=True)

    p = add("chain", _cmd_chain, "print the reduction chain and its termination tag")
    p.add_argument("--periods", required=True)
    p.add_argument("--length", required=True, type=int)

    p = add("selftest", _cmd_selftest, "cross-check the engines on a small exhaustive grid")
    p.add_argument("--max-period", type=int, default=argparse.SUPPRESS)
    p.add_argument("--max-n", type=int, default=argparse.SUPPRESS)

    p = add("bench", _cmd_bench, "time the engines (report only)")
    p.add_argument("--periods", required=True)
    p.add_argument("--length", required=True, type=int)
    p.add_argument("--repetitions", type=int, default=5)
    p.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help itself
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # A closed pipe is the reader's choice; any other failed write (a full disk, a file size limit) is an
        # output error. Point stdout at devnull so the flush at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            return 0
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
