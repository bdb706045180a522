import json
import pathlib

import pytest

from qlattice import (
    family_to_dict,
    gen_example_bisection,
    gen_example_uniform,
)

SCHEMA_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "qlattice" / "schemas"
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def load_schema(name: str) -> dict:
    with open(SCHEMA_DIR / f"{name}.schema.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="session")
def tight_example():
    return gen_example_uniform(2, 1, 2)


@pytest.fixture(scope="session")
def bisection3():
    return gen_example_bisection(3, 2)


@pytest.fixture
def write_json(tmp_path):
    def _write(name: str, payload: dict) -> str:
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    return _write


@pytest.fixture
def family_file(write_json):
    def _write(family, name: str = "family.json") -> str:
        return write_json(name, family_to_dict(family))

    return _write


class FakeClock:
    """A time.monotonic stand-in: returns now, then moves now on by step."""

    def __init__(self, now: float = 0.0, step: float = 0.0):
        self.now, self.step = now, step

    def __call__(self) -> float:
        now = self.now
        self.now += self.step
        return now


@pytest.fixture
def fake_clock(monkeypatch):
    """Patch time.monotonic, which budget scopes read, with a FakeClock."""
    import time

    clock = FakeClock()
    monkeypatch.setattr(time, "monotonic", clock)
    return clock
