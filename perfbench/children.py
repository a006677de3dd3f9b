"""Child processes run one at a time from a small helper process.

Linux carries a parent's peak RSS into a child started with vfork+exec
(what ``subprocess`` uses), so a child's ``ru_maxrss`` can never read below
the peak of the process that spawned it. The benchmark process holds
reference outputs and query results, so it launches every measured child
through this helper instead, which stays at interpreter size. The helper
times each child from spawn to reaped exit, reads its peak RSS from
``os.wait4``, and streams its stdout through SHA-256 in 1 MiB chunks, so
neither side ever holds a whole output.

Run as a script, this file is the helper: it reads one JSON request per
line on stdin and answers one JSON line per request on stdout.
"""

from __future__ import annotations

import hashlib
import json
import os
import selectors
import subprocess
import sys
import time

CHUNK = 1 << 20
KEEP = 1 << 16  # bytes of stdout kept from each end, and of stderr


def run_child(argv: list[str], timeout: float) -> dict:
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    digest = hashlib.sha256()
    nbytes = lines = 0
    head = bytearray()
    tail = b""
    err = bytearray()
    timed_out = False
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        sel.register(proc.stderr, selectors.EVENT_READ)
        deadline = start + timeout
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                timed_out = True
                proc.kill()
                break
            for key, _ in sel.select(remaining):
                chunk = os.read(key.fd, CHUNK)
                if not chunk:
                    sel.unregister(key.fileobj)
                elif key.fileobj is proc.stdout:
                    digest.update(chunk)
                    nbytes += len(chunk)
                    lines += chunk.count(b"\n")
                    if len(head) < KEEP:
                        head += chunk[: KEEP - len(head)]
                    tail = (tail + chunk)[-KEEP:]
                elif len(err) < KEEP:
                    err += chunk[: KEEP - len(err)]
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return {
        "wall_s": wall,
        "exit": proc.returncode,
        "timed_out": timed_out,
        "maxrss_kb": usage.ru_maxrss,
        "bytes": nbytes,
        "lines": lines,
        "sha256": digest.hexdigest(),
        "head": head.decode("utf-8", "replace"),
        "tail": tail.decode("utf-8", "replace"),
        "stderr": err.decode("utf-8", "replace"),
    }


class Children:
    """The benchmark side of the helper process; use as a context manager."""

    def __init__(self, env: dict[str, str], cwd: str) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=cwd,
            text=True,
        )

    def run(self, argv: list[str], timeout: float) -> dict:
        self._proc.stdin.write(json.dumps({"argv": argv, "timeout": timeout}) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("child-process helper exited")
        return json.loads(line)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> Children:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(run_child(request["argv"], request["timeout"])), flush=True)


if __name__ == "__main__":
    main()
