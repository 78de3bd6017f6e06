"""Let child processes (`python -m torusbv.cli`, `python -O -c ...`) import
the package from this checkout's `src`, as `pythonpath` in pyproject.toml
does for the test process itself; and plant density maps that must be
called."""

import os
from pathlib import Path

import pytest

from torusbv import densityrep

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


class DensityPlants:
    """Plants maps in `densityrep` through a pytest `monkeypatch`:
    `plants(rho)` installs rho as the term map `_rho_terms`, which
    `rho_apply` and `verify_lie_action` both read, and
    `plants(rho, "rho_apply")` as the public `rho_apply`.  Each call
    installs a counting wrapper of rho and returns it; its `calls` attribute
    counts the applications.  `dead()` names every installed map that was
    never called: a plant on a seam the code no longer reads leaves every
    verdict as it was, so where the expected verdict is True it would pass
    silently."""

    def __init__(self, monkeypatch):
        self._monkeypatch = monkeypatch
        self._planted = []

    def __call__(self, rho, name="_rho_terms"):
        def counted(*args):
            counted.calls += 1
            return rho(*args)

        counted.calls = 0
        self._planted.append((name, rho, counted))
        self._monkeypatch.setattr(densityrep, name, counted)
        return counted

    def dead(self):
        return [f"{name} = {getattr(rho, '__qualname__', rho)}" for name, rho, counted in self._planted
                if not counted.calls]


@pytest.fixture
def plant_density(monkeypatch):
    """A `DensityPlants`; the test fails at teardown if a map it planted
    was never called."""
    plants = DensityPlants(monkeypatch)
    yield plants
    dead = plants.dead()
    if dead:
        pytest.fail(f"planted density maps never called: {dead}")
