"""Point the interpreters the tests start (`python -m fwwords`, `python -c`)
at this checkout's `src`, as `pythonpath` in pyproject.toml does for the
tests themselves."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
