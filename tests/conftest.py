"""Let child processes (`python -m torusbv.cli`, `python -O -c ...`) import
the package from this checkout's `src`, as `pythonpath` in pyproject.toml
does for the test process itself."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
