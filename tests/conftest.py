import json
import pathlib

import pytest

from qlattice import (
    FractionSet,
    ModularProfile,
    SearchLimits,
    family_to_dict,
    gen_example_bisection,
    gen_example_uniform,
    qbinom,
)

SCHEMA_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "qlattice" / "schemas"
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
ANSWERS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "answers.json"


def load_schema(name: str) -> dict:
    with open(SCHEMA_DIR / f"{name}.schema.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="session")
def tight_example():
    return gen_example_uniform(2, 1, 2)


@pytest.fixture(scope="session")
def bisection3():
    return gen_example_bisection(3, 2)


def _predicate(key: str):
    """A predicate from its answers.json spelling: "F:1/2,1/3" or "M:b:K:L"."""
    kind, _, body = key.partition(":")
    if kind == "F":
        return FractionSet(tuple(tuple(map(int, f.split("/"))) for f in body.split(",")))
    b, K, L = body.split(":")
    ints = lambda part: tuple(map(int, part.split(","))) if part else ()
    return ModularProfile(int(b), ints(K), ints(L))


@pytest.fixture(scope="session")
def answers_searches():
    """(key, record, predicate, limits) of every search the benchmark's answers.json records.

    The record holds q, n, the graph's V and E, and max_size, the largest
    family the predicate admits there (None where it is not known).
    """
    with open(ANSWERS, encoding="utf-8") as handle:
        answers = json.load(handle)
    return [
        (
            key,
            ref,
            _predicate(ref["pred"]),
            SearchLimits(
                max_nodes=answers["max_nodes"],
                dim_filter=tuple(ref["dims"]) if ref["dims"] else None,
            ),
        )
        for key, ref in sorted(answers["search"].items())
    ]


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


# Meet rules m(meet dim, di, dj, n) whose dimension pairs are constant,
# wholly or in part: each pair admits every meet it can reach, or none.
CONSTANT_PAIR_RULES = {
    # a di-space and a dj-space meet in at least di + dj - n dimensions
    "below every meet": lambda m, di, dj, n: m < di + dj - n,
    "every meet": lambda m, di, dj, n: True,
    "all but itself": lambda m, di, dj, n: not m == di == dj,
    "itself only": lambda m, di, dj, n: m == di == dj,
    # row w holds u when u lies in w: constant for du = 0 and for du > dw
    "contains": lambda m, di, dj, n: m == dj,
    # one meet per pair: constant where it is the only one or out of reach
    "one meet": lambda m, di, dj, n: m == (di * dj + 1) % (n + 1),
}


@pytest.fixture(params=list(CONSTANT_PAIR_RULES))
def constant_pair_rule(request):
    """rule(n, q): a compatible_rows table, allowed[di][dj] = {[m 1]_q : m admitted}."""
    meets = CONSTANT_PAIR_RULES[request.param]

    def rule(n: int, q: int):
        span = range(n + 1)
        return tuple(
            tuple(frozenset(qbinom(m, 1, q) for m in span if meets(m, di, dj, n)) for dj in span)
            for di in span
        )

    return rule
