"""Workload operations: seeded stratified draws, execution and answer checks.

Every operation is a small JSON-able dict. The benchmark seed only chooses
which pool entries are drawn and in which order; each stratum contributes a
fixed number of operations, so every seed gives the same mix of cost classes.
Expected answers live in answers.json (written by record.py); an operation
whose result disagrees with its recorded answer is counted as failed.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ANSWERS = HERE / "answers.json"
GOLDEN = ROOT / "tests" / "golden"
TEST_DATA = ROOT / "tests" / "data"

# One node budget for every search the benchmark runs, warm or cold, so the
# recorded answers hold for both.
MAX_NODES = 20000
SEARCH_AMBIENTS = ((2, 5), (3, 4), (2, 4), (4, 3), (5, 3))


def load_answers() -> dict:
    with open(ANSWERS, encoding="utf-8") as handle:
        return json.load(handle)


def search_class(nodes: int, exhausted: bool) -> str:
    """Cost class of a search under MAX_NODES, from the seed code's node count."""
    if not exhausted:
        return "capped"
    if nodes < 200:
        return "easy"
    return "medium" if nodes < 2000 else "hard"


# ---------------------------------------------------------------------------
# predicates as strings: "F:1/2,1/3" for fraction sets, "M:b:K:L" for profiles


def fraction_key(fracs) -> str:
    return "F:" + ",".join(f"{a}/{b}" for a, b in fracs)


def profile_key(b, K, L) -> str:
    return f"M:{b}:{','.join(map(str, K))}:{','.join(map(str, L))}"


def parse_pred(key: str):
    kind, _, body = key.partition(":")
    if kind == "F":
        return "F", tuple(tuple(int(x) for x in f.split("/")) for f in body.split(","))
    b, K, L = body.split(":")
    ints = lambda s: tuple(int(x) for x in s.split(",")) if s else ()
    return "M", (int(b), ints(K), ints(L))


def search_key(q, n, pred, dims) -> str:
    dims_part = ",".join(map(str, dims)) if dims else "-"
    return f"q={q} n={n} {pred} dims={dims_part}"


# ---------------------------------------------------------------------------
# stratified draws


def _draw(rng: random.Random, pool: list, k: int) -> list:
    if not pool:
        raise ValueError("empty stratum")
    if k <= len(pool):
        return rng.sample(pool, k)
    return [rng.choice(pool) for _ in range(k)]


# (ambient, class, count per pass). The list has 42 operations, so the tail
# (eleventh slowest) is p76: it falls among the GF(3)^4 hard searches, and
# the median among the GF(3)^4 medium ones, so neither sits on a class
# boundary. GF(2)^5 hard and GF(3)^4 capped searches are left out: their few
# entries differ in cost by up to half, which moved wall_s and op_tail_s
# from seed to seed.
SEARCH_STRATA = (
    ((2, 5), "easy", 4), ((2, 5), "medium", 6), ((2, 5), "capped", 6),
    ((3, 4), "easy", 2), ((3, 4), "medium", 6), ((3, 4), "hard", 6),
    ((2, 4), "easy", 4),
    ((4, 3), "easy", 4),
    ((5, 3), "easy", 4),
)
TINY_SEARCH_STRATA = (((2, 4), "easy", 1), ((4, 3), "easy", 1), ((5, 3), "easy", 1))
# A stratum draws from the entries whose recorded time is nearest the
# stratum's median, so a seed changes the predicates but not the cost.
STRATUM_POOL = 6


def search_pool(answers: dict, ambient, cls: str, dims_ok: bool = True) -> list[str]:
    q, n = ambient
    return sorted(
        key for key, ref in answers["search"].items()
        if (ref["q"], ref["n"]) == (q, n) and ref["class"] == cls
        and (dims_ok or ref["dims"] is None)
    )


def nearest_median(answers: dict, keys: list[str]) -> list[str]:
    times = sorted((answers["search"][k]["t"], k) for k in keys)
    mid = times[len(times) // 2][0]
    return sorted(k for _, k in sorted(times, key=lambda tk: abs(tk[0] - mid))[:STRATUM_POOL])


def make_search_warm(rng, answers, tiny):
    ops = []
    for ambient, cls, count in TINY_SEARCH_STRATA if tiny else SEARCH_STRATA:
        pool = nearest_median(answers, search_pool(answers, ambient, cls))
        for key in _draw(rng, pool, count):
            ops.append({"kind": "search", "key": key})
    rng.shuffle(ops)
    return ops


# verify_warm: uniform examples (k, s, q) with a certificate context each
SMALL_BASES = ("2,1,2", "1,2,2", "2,2,2", "3,1,2", "1,3,2", "2,1,3")
LARGE_BASES = ("2,2,3", "3,2,2")
SUBFAMILIES = 6            # pool of seeded subfamilies per base
LARGE_SUB_SIZE = 16        # members of a large-base subfamily
GRAM_SUB_SIZE = 20         # members of a bisection(7, 2) subfamily
VARIANTS = ("lemma41", "swallow1", "lemma52", "swallow2")
BOUND_POOL = (
    ("main", 10, 2, [3, [2], [1]]), ("main", 12, 2, [4, [3], [1, 2]]),
    ("main", 9, 3, [4, [2], [0, 1]]), ("main", 20, 2, [5, [1], [0]]),
    ("frankl-graham", 10, 2, [3, 5, [1, 2]]), ("frankl-graham", 14, 3, [2, 4, [1]]),
    ("frankl-graham", 16, 2, [4, 3, [0, 2]]),
    ("frac", 10, 2, [[1, 2], [1, 3]]), ("frac", 19, 2, [[1, 2], [2, 3], [3, 4]]),
    ("frac", 12, 3, [[1, 2]]), ("frac", 30, 2, [[1, 3]]),
    ("singleton", 10, 2, [1, 2]), ("singleton", 40, 3, [2, 5]), ("singleton", 25, 2, [3, 7]),
)


def make_verify_warm(rng, answers, tiny):
    """Every pass runs the same operation shapes; the seed picks the random
    subfamilies, functions, subspace pairs and stray members, and the order."""
    sub = lambda: rng.randrange(SUBFAMILIES)
    small = SMALL_BASES[:2] if tiny else SMALL_BASES
    ops = []
    for base in small:
        for variant in VARIANTS:
            ops.append({"kind": "cert", "base": base, "sub": None, "variant": variant})
            ops.append({"kind": "cert", "base": base, "sub": sub(), "variant": variant})
        ops.append({"kind": "span", "base": base, "sub": None})
        ops.append({"kind": "check_modular", "base": base, "sub": sub(), "violate": False})
        ops.append({"kind": "check_modular", "base": base, "sub": None, "violate": True})
    for base in () if tiny else LARGE_BASES:
        for variant in VARIANTS:
            ops.append({"kind": "cert", "base": base, "sub": sub(), "variant": variant})
        ops.append({"kind": "span", "base": base, "sub": sub()})
    for n in (5,) if tiny else (5, 6):
        for violate in (False, True):
            ops.append({"kind": "check_fractional", "n": n, "violate": violate, "extra": sub()})
    if not tiny:
        ops.append({"kind": "gram", "n": 5, "sub": None})
        ops.append({"kind": "gram", "n": 6, "sub": None})
        ops.append({"kind": "gram", "n": 7, "sub": sub()})
    for q, n in ((2, 3),) if tiny else ((2, 5), (3, 4)):
        for kind in ("roundtrip", "inversion", "vanishing"):
            ops.append({"kind": kind, "q": q, "n": n, "rseed": rng.randrange(2 ** 30),
                        "low": rng.random() < 0.5})
    for entry in BOUND_POOL[:2] if tiny else BOUND_POOL:
        ops.append({"kind": "bound", "args": list(entry)})
    rng.shuffle(ops)
    for op in ops:
        op["key"] = verify_key(op)
    return ops


def verify_key(op: dict) -> str:
    """Answer-table key of a verify operation; random-function ops check identities."""
    if op["kind"] in ("roundtrip", "inversion", "vanishing"):
        return op["kind"]
    if op["kind"] == "bound":
        return "bound " + json.dumps(op["args"], separators=(",", ":"))
    parts = [op["kind"]] + [f"{k}={op[k]}" for k in sorted(op) if k not in ("kind", "key")]
    return " ".join(parts)


# cli_cold: argv templates; {W} is the work directory, {D} the tests/data
# directory. The strata fix the mix of heavy and light commands.
GOLDEN_ARGV = {
    "qbinom.txt": "qbinom 4 2 2",
    "zsigmondy_prime.json": "zsigmondy 2 3",
    "zsigmondy_exception.json": "zsigmondy 2 6",
    "enum_count.json": "enum --n 3 --q 2 --dim 1 --count-only",
    "bound_singleton.json": "bound --theorem singleton --n 4 --q 2 --frac 1/2",
    "bound_singleton.table.txt": "bound --theorem singleton --n 4 --q 2 --frac 1/2 --format table",
    "bound_singleton.csv": "bound --theorem singleton --n 4 --q 2 --frac 1/2 --format csv",
    "example_bisection.json": "example bisection --n 3 --q 2",
    "search_frac.json": "search --n 3 --q 2 --fractions 1/2",
    "certify_swallow1.json": "certify --family {D}/planes7.json --profile {D}/profile_tight.json --variant swallow1",
    "check_bisection.json": "check --family {D}/bisection3.json --fractions 1/2",
    "partition_power.json": "partition --family {D}/bisection3.json --base 2",
    "gram_bisection.json": "gram --family {D}/bisection3.json --base 2 --frac 1/2",
}
BUDGET_PROBE = "search --n 5 --q 2 --fractions 1/3 --time-budget 1"
BUDGET_PROBE_SECONDS = 1.0
CLI_HEAVY = (
    "certify --family {W}/uniform_3_2_2.json --profile {W}/uniform_3_2_2.profile.json --variant swallow1",
    "certify --family {W}/uniform_2_2_3.json --profile {W}/uniform_2_2_3.profile.json --variant lemma52",
    "check --family {W}/uniform_3_2_2.json --profile {W}/uniform_3_2_2.profile.json",
    "gram --family {W}/bisection_7_2.json --base 2 --frac 1/2",
)
CLI_LIGHT = {
    "qbinom": ("qbinom 4 2 2", "qbinom 6 3 2", "qbinom 5 2 3", "qbinom 8 4 2",
               "qbinom 10 5 3", "qbinom 7 3 4", "qbinom 12 6 2", "qbinom 9 4 5"),
    "altsum": ("altsum 5 3", "altsum 0 2", "altsum 6 2", "altsum 7 3", "altsum 4 5", "altsum 9 2"),
    "zsigmondy": ("zsigmondy 2 3", "zsigmondy 2 6", "zsigmondy 3 2", "zsigmondy 2 5",
                  "zsigmondy 2 7", "zsigmondy 3 4", "zsigmondy 5 3", "zsigmondy 2 11",
                  "zsigmondy 7 5", "zsigmondy 2 10"),
    "bound-main": ("bound --theorem main --n 3 --q 2 --profile {D}/profile_tight.json",
                   "bound --theorem main --n 10 --q 2 --b 3 --K 2 --L 1",
                   "bound --theorem main --n 12 --q 2 --b 4 --K 3 --L 1,2",
                   "bound --theorem main --n 9 --q 3 --b 4 --K 2 --L 0,1"),
    "bound-frac": ("bound --theorem frac --n 10 --q 2 --fractions 1/2,1/3",
                   "bound --theorem frac --n 12 --q 3 --fractions 1/2",
                   "bound --theorem frac --n 30 --q 2 --fractions 1/3"),
    "bound-singleton": ("bound --theorem singleton --n 4 --q 2 --frac 1/2",
                        "bound --theorem singleton --n 4 --q 2 --frac 1/2 --format table",
                        "bound --theorem singleton --n 4 --q 2 --frac 1/2 --format csv",
                        "bound --theorem singleton --n 40 --q 3 --frac 2/5"),
    "bound-fg": ("bound --theorem frankl-graham --n 10 --q 2 --k 3 --b 5 --mus 1,2",
                 "bound --theorem frankl-graham --n 14 --q 3 --k 2 --b 4 --mus 1"),
    "enum": ("enum --n 3 --q 2 --dim 1 --count-only", "enum --n 8 --q 3 --dim 4 --count-only",
             "enum --n 12 --q 2 --dim 6 --count-only", "enum --n 3 --q 2 --dim 2",
             "enum --n 3 --q 3 --dim 1"),
    "example": ("example bisection --n 3 --q 2", "example uniform --k 2 --s 1 --q 2",
                "example frac-uniform --s 2 --n 3 --q 2", "example bisection --n 4 --q 3",
                "example uniform --k 1 --s 2 --q 3"),
    "certify-small": ("certify --family {D}/planes7.json --profile {D}/profile_tight.json --variant swallow1",
                      "certify --family {D}/planes7.json --profile {D}/profile_tight.json --variant lemma41"),
    "family-small": ("check --family {D}/bisection3.json --fractions 1/2",
                     "check --family {D}/planes7.json --fractions 1/3",
                     "partition --family {D}/bisection3.json --base 2",
                     "partition --family {D}/planes7.json --prime 2",
                     "gram --family {D}/bisection3.json --base 2 --frac 1/2"),
    "search-tiny": ("search --n 3 --q 2 --fractions 1/2", "search --n 3 --q 2 --fractions 1/3",
                    "search --n 3 --q 3 --fractions 1/2", "search --n 2 --q 5 --fractions 1/2",
                    "search --n 3 --q 2 --profile {D}/profile_tight.json"),
}
CLI_LIGHT_COUNTS = {
    "qbinom": 1, "altsum": 1, "zsigmondy": 2, "bound-main": 1, "bound-frac": 1,
    "bound-singleton": 1, "bound-fg": 1, "enum": 1, "example": 2, "certify-small": 1,
    "family-small": 2,
    "search-tiny": 3,
}


# Cold node-budgeted searches: (ambient, predicate kind, class, count per
# pass). Two heavy strata exhaust their space and two stop at the node
# budget, so every seed has the same share of proved searches. The four
# GF(2)^4 searches sit between the heavy and the light commands, so the
# tail (eleventh slowest of 30) falls inside their group, not on the
# slowest light command.
CLI_SEARCH_STRATA = (((2, 5), "F", "capped", 1), ((2, 5), "M", "hard", 1),
                     ((3, 4), "F", "capped", 1), ((3, 4), "M", "hard", 1),
                     ((2, 4), "", "easy", 4))


def cli_search_pool(answers: dict, ambient, kind: str, cls: str) -> list[str]:
    return [k for k in search_pool(answers, ambient, cls, dims_ok=False)
            if answers["search"][k]["pred"].startswith(kind)]


def search_argv(ref: dict) -> str:
    kind, body = parse_pred(ref["pred"])
    argv = f"search --n {ref['n']} --q {ref['q']} --max-nodes {MAX_NODES}"
    if kind == "F":
        return argv + " --fractions " + ref["pred"][2:]
    return argv + " --profile {W}/" + profile_file(ref["pred"])


def profile_file(pred: str) -> str:
    return "profile_" + pred[2:].replace(":", "_").replace(",", "-") + ".json"


def make_cli_cold(rng, answers, tiny):
    ops = []
    if tiny:
        light = {"qbinom": 1, "zsigmondy": 1, "search-tiny": 1}
    else:
        light = CLI_LIGHT_COUNTS
        for ambient, kind, cls, count in CLI_SEARCH_STRATA:
            for key in _draw(rng, cli_search_pool(answers, ambient, kind, cls), count):
                ops.append({"kind": "cli", "argv": search_argv(answers["search"][key]),
                            "search": key, "cheap": ambient == (2, 4)})
        for argv in CLI_HEAVY:
            ops.append({"kind": "cli", "argv": argv})
        ops.append({"kind": "cli", "argv": BUDGET_PROBE, "budget": BUDGET_PROBE_SECONDS})
    for stratum, count in light.items():
        for argv in _draw(rng, list(CLI_LIGHT[stratum]), count):
            ops.append({"kind": "cli", "argv": argv, "cheap": True})
    rng.shuffle(ops)
    return ops


MAKERS = {"cli_cold": make_cli_cold, "search_warm": make_search_warm, "verify_warm": make_verify_warm}


def make_ops(workload: str, seed: int, answers: dict, tiny: bool = False) -> list[dict]:
    """The fixed operation list of one workload for one seed."""
    return MAKERS[workload](random.Random(f"{workload}:{seed}"), answers, tiny)


# ---------------------------------------------------------------------------
# an independent family oracle: intersection dimensions by rank over the field
# tables, so the check shares no incidence code with the layers under test


def _rank(ctx, rows) -> int:
    work = [list(r) for r in rows]
    rank, cols = 0, len(work[0]) if work else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = ctx.inv(work[rank][c])
        work[rank] = [ctx.mul(inv, x) for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][c]:
                f = work[i][c]
                work[i] = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def family_violation(ctx, members, pred: str, dims=None):
    """None if the family obeys the predicate, else a description of the first fault."""
    kind, body = parse_pred(pred)
    member_dims = [len(m.rows) for m in members]
    if len(set(members)) != len(members):
        return "duplicate members"
    for i, d in enumerate(member_dims):
        if dims and d not in dims:
            return f"member {i} has dim {d} outside the dim filter"
        if kind == "M" and d % body[0] not in body[1]:
            return f"member {i} has dim {d} outside K"
        if kind == "F" and d == 0:
            return f"member {i} is the zero subspace"
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            di, dj = member_dims[i], member_dims[j]
            meet = di + dj - _rank(ctx, list(members[i].rows) + list(members[j].rows))
            if kind == "M":
                if meet % body[0] not in body[2]:
                    return f"pair ({i}, {j}) meets in dim {meet}, outside L"
            elif not any(meet * b == a * di or meet * b == a * dj for a, b in body):
                return f"pair ({i}, {j}) meets in dim {meet}, no listed fraction"
    return None


def check_search(ref: dict, ctx, members, size, exhausted, nodes, vertices, edges):
    """(ok, detail) for one search result against the reference table."""
    if (vertices, edges) != (ref["V"], ref["E"]):
        return False, f"graph {vertices}/{edges} differs from {ref['V']}/{ref['E']}"
    if size != len(members) or nodes > ref.get("max_nodes", MAX_NODES):
        return False, f"size {size} or nodes {nodes} inconsistent"
    best = ref["max_size"]
    if exhausted and best is not None and size != best:
        return False, f"exhausted at size {size}, the maximum is {best}"
    if best is not None and size > best:
        return False, f"size {size} exceeds the maximum {best}"
    fault = family_violation(ctx, members, ref["pred"], ref["dims"])
    if fault:
        return False, fault
    return True, ""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def ensure_src_path():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
