"""Spans around the public functions of the fwwords modules, kept in memory.

The tracer replaces each traced function at every module name it is bound
to (``cli.fw_fast``, ``selftest.fw_oracle``, ``reduction.extend_periodically``
and so on) with a wrapper that records one span: (name, start, end, parent).
``PeriodSet.__init__`` is wrapped on the class, so every construction counts
wherever it happens. Spans are named after the module that defines the
function, which is the layer they are charged to.

Self time is accumulated as spans close: a span's duration minus the
durations of its direct children. The raw spans stay in memory and are
written out at the end (``dump``) for inspection.

Run as a script, this file is the traced CLI child::

    python3 perfbench/tracer.py OUT_PREFIX word --periods 5,7 --length 8

It times ``import fwwords.cli``, runs ``fwwords.cli.main`` under the tracer
with the remaining arguments, writes ``OUT_PREFIX.json`` (aggregates) and
``OUT_PREFIX.spans`` (raw spans), and exits with the command's exit code.
"""

from __future__ import annotations

import array
import json
import sys
import time

# Functions traced, by defining module. Private helpers (_jump, _window,
# build_partition, has_period) stay inside their caller's self time.
TRACED = {
    "cli": ("main",),
    "selftest": ("run_selftest",),
    "oracle": ("fw_oracle",),
    "reduction": (
        "fw_fast",
        "generating_prefix",
        "letter_at",
        "extremal_length",
        "reduction_chain",
        "letter_at_unbatched",
        "extremal_length_unbatched",
    ),
    "words": ("extend_periodically", "alphabet", "is_trivial", "canonicalize", "is_palindrome", "pref"),
}

# Modules whose namespaces may bind a traced function.
BINDERS = ("", ".cli", ".selftest", ".bench", ".oracle", ".reduction", ".words")

CONSTRUCT = "periods.PeriodSet"


class Tracer:
    """Records spans while installed; ``uninstall`` restores every patched name."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array.array("q")  # flat quadruples: name id, start ns, end ns, parent span
        self.self_ns: list[int] = []
        self.calls: list[int] = []
        self.oracle_positions = 0
        self._stack: list[list[int]] = []  # open spans: [span index, ns covered by children]
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_ns.append(0)
            self.calls.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        spans, stack, self_ns, calls = self.spans, self._stack, self.self_ns, self.calls
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(spans) >> 2
            spans.extend((nid, 0, 0, stack[-1][0] if stack else -1))
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[4 * sid + 1] = start
                spans[4 * sid + 2] = end
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self_ns[nid] += duration - frame[1]
                calls[nid] += 1

        return traced

    def install(self) -> None:
        import importlib

        import fwwords.oracle
        import fwwords.periods

        wrappers = {}
        for module, names in TRACED.items():
            mod = importlib.import_module(f"fwwords.{module}")
            for name in names:
                original = getattr(mod, name)
                wrapper = self.wrap(f"{module}.{name}", original)
                if original is fwwords.oracle.fw_oracle:
                    wrapper = self._count_positions(wrapper)
                wrappers[id(original)] = (original, wrapper)
        for suffix in BINDERS:
            mod = importlib.import_module(f"fwwords{suffix}")
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        cls = fwwords.periods.PeriodSet
        self._patch(cls, "__init__", self.wrap(CONSTRUCT, cls.__init__))

    def _count_positions(self, wrapper):
        def counted(periods, n, *rest):
            self.oracle_positions += n
            return wrapper(periods, n, *rest)

        return counted

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per span name: calls and self time in ns; plus the oracle position count."""
        return {
            "calls": {name: self.calls[i] for i, name in enumerate(self.names)},
            "self_ns": {name: self.self_ns[i] for i, name in enumerate(self.names)},
            "oracle_positions": self.oracle_positions,
        }

    def dump(self, prefix: str, **extra) -> None:
        """Write the raw spans (native int64 quadruples) and the summary."""
        with open(prefix + ".spans", "wb") as fh:
            self.spans.tofile(fh)
        doc = {"names": self.names, "span_layout": ["name", "start_ns", "end_ns", "parent"]}
        doc.update(self.summary())
        doc.update(extra)
        with open(prefix + ".json", "w") as fh:
            json.dump(doc, fh)


def main(argv: list[str]) -> int:
    out, args = argv[0], argv[1:]
    start = time.perf_counter_ns()
    import fwwords.cli

    import_ns = time.perf_counter_ns() - start
    tracer = Tracer()
    tracer.install()
    try:
        code = fwwords.cli.main(args)
        sys.stdout.flush()
    finally:
        tracer.uninstall()
        tracer.dump(out, import_ns=import_ns)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
