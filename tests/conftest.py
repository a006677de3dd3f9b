"""Point the interpreters the tests start (`python -m fwwords`, `python -c`)
at this checkout's `src`, as `pythonpath` in pyproject.toml does for the
tests themselves, and render the literal chain that `chain` must print."""

import os
from pathlib import Path

import pytest

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
