"""Regenerate perfbench/answers.json, the benchmark's table of expected answers.

    python3 perfbench/record.py

Answers come from the current code and are cross-checked where an
independent oracle exists: maximum clique sizes against networkx, CLI bytes
against tests/golden, every returned search family against the benchmark's
own family oracle, and the Gram and transform identities against theory.
Run it only on a commit whose answers are trusted; the benchmark then
counts any later disagreement as a failed operation.
"""

from __future__ import annotations

import gc
import itertools
import json
import random
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import ops as O  # noqa: E402

O.ensure_src_path()
from qlattice import families, gfspace, search  # noqa: E402
import worker  # noqa: E402

FRACTION_SETS = (
    ((1, 2),), ((1, 3),), ((2, 3),), ((1, 3), (2, 3)), ((1, 2), (1, 3)), ((1, 4),), ((3, 4),),
    ((1, 2), (1, 4)), ((1, 4), (3, 4)), ((2, 5),), ((1, 2), (2, 3)), ((1, 3), (1, 2), (2, 3)),
)
POOL_PER_STRATUM = 24
NX_SECONDS = 2


def profiles():
    subsets = lambda b: itertools.chain.from_iterable(
        itertools.combinations(range(b), r) for r in (1, 2))
    for b in (2, 3, 4, 5):
        for K in subsets(b):
            for L in subsets(b):
                if not set(K) & set(L):
                    yield b, K, L


class _Late(Exception):
    pass


def _alarm(signum, frame):
    raise _Late


def nx_max_clique(graph):
    """Maximum clique size by networkx, or None when it takes over NX_SECONDS."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(graph.size))
    for i, mask in enumerate(graph.adjacency):
        g.add_edges_from((i, j) for j in range(i + 1, graph.size) if (mask >> j) & 1)
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(NX_SECONDS)
    try:
        clique, _ = nx.max_weight_clique(g, weight=None)
        return len(clique)
    except _Late:
        return None
    finally:
        signal.alarm(0)


def search_entry(q, n, pred_key, dims, max_nodes=O.MAX_NODES):
    kind, body = O.parse_pred(pred_key)
    pred = families.FractionSet(body) if kind == "F" else families.ModularProfile(*body)
    limits = search.SearchLimits(max_nodes=max_nodes, dim_filter=dims)
    ctx = gfspace.field(q)
    graph = search.build_graph(ctx, n, pred, limits)
    result = search.max_family(graph, limits)
    return graph, result, {
        "q": q, "n": n, "pred": pred_key, "dims": list(dims) if dims else None,
        "V": graph.size, "E": graph.edge_count(), "size": result.size,
        "exhausted": result.exhausted, "nodes": result.nodes,
        "class": O.search_class(result.nodes, result.exhausted),
    }


def finish_entry(graph, result, entry):
    """Fill max_size, cross-checked with networkx when that is fast."""
    best = nx_max_clique(graph)
    if best is not None and result.exhausted and best != result.size:
        raise SystemExit(f"clique size {result.size} disagrees with networkx {best}: {entry}")
    entry["max_size"] = best if best is not None else (result.size if result.exhausted else None)
    entry["nx_checked"] = best is not None
    ok, detail = O.check_search(entry, graph.ctx, result.family.members, result.size,
                                result.exhausted, result.nodes, graph.size, graph.edge_count())
    if not ok:
        raise SystemExit(f"search answer fails its own check ({detail}): {entry}")
    return entry


def seconds_taken(entry) -> float:
    """Median warm time of one search, which sorts entries into cost strata."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        search_entry(entry["q"], entry["n"], entry["pred"], entry["dims"] and tuple(entry["dims"]))
        times.append(time.perf_counter() - start)
    return round(sorted(times)[1], 5)


def record_search() -> dict:
    candidates = {}
    for q, n in O.SEARCH_AMBIENTS:
        preds = [O.fraction_key(f) for f in FRACTION_SETS] + [O.profile_key(*p) for p in profiles()]
        for pred_key in preds:
            for dims in [None] + list(itertools.combinations(range(1, n), 2)):
                graph, _, entry = search_entry(q, n, pred_key, dims)
                if graph.size:
                    candidates[O.search_key(q, n, pred_key, dims)] = entry
        print(f"searched GF({q})^{n}", flush=True)
    strata: dict = {}
    for key, entry in sorted(candidates.items()):
        strata.setdefault((entry["q"], entry["n"], entry["class"], entry["dims"] is None), []).append(key)
    table = {}
    rng = random.Random(0)
    for stratum, keys in sorted(strata.items()):
        keep = keys if len(keys) <= POOL_PER_STRATUM else sorted(rng.sample(keys, POOL_PER_STRATUM))
        for key in keep:
            entry = candidates[key]
            table[key] = finish_entry(*search_entry(
                entry["q"], entry["n"], entry["pred"], entry["dims"] and tuple(entry["dims"])))
        print(f"stratum {stratum}: {len(keys)} found, {len(keep)} kept", flush=True)
    # time with only the warm lattice caches alive, as in a warm worker
    del candidates
    gc.collect()
    for entry in table.values():
        entry["t"] = seconds_taken(entry)
    return table


def record_cli(search_table) -> dict:
    table = {}
    with tempfile.TemporaryDirectory(dir=O.HERE) as tmp:
        work = Path(tmp)
        worker.write_inputs(work, search_table)
        argvs = [a for group in O.CLI_LIGHT.values() for a in group] + list(O.CLI_HEAVY)
        argvs.append(O.BUDGET_PROBE)
        for argv in argvs:
            args = [tok.format(W=work, D=O.TEST_DATA) for tok in argv.split()]
            proc = subprocess.run([sys.executable, "-m", "qlattice.cli"] + args,
                                  capture_output=True, timeout=120, cwd=work,
                                  env={"PYTHONPATH": str(O.SRC), "PATH": "/usr/bin:/bin"})
            golden = next((name for name, g in O.GOLDEN_ARGV.items() if g == argv), None)
            if golden is not None and (O.GOLDEN / golden).read_bytes() != proc.stdout:
                raise SystemExit(f"golden {golden} disagrees with the current code")
            if argv.startswith("search"):
                table[argv] = search_cli_entry(argv, proc.returncode, work)
            else:
                table[argv] = {"exit": proc.returncode, "sha256": O.sha256(proc.stdout)}
            print(f"exit {proc.returncode}: {argv}", flush=True)
    return table


def search_cli_entry(argv, code, work):
    tokens = argv.split()
    opt = lambda name: tokens[tokens.index(name) + 1] if name in tokens else None
    if opt("--profile"):
        path = opt("--profile").format(W=work, D=O.TEST_DATA)
        p = families.profile_from_dict(json.loads(Path(path).read_text()))
        pred_key = O.profile_key(p.b, p.K, p.L)
    else:
        pred_key = "F:" + opt("--fractions")
    q, n = int(opt("--q")), int(opt("--n"))
    # The budget probe's answer depends on time; only its graph and maximum
    # size are recorded, so a short search is enough to get them.
    probe = opt("--time-budget") is not None
    graph, result, entry = search_entry(q, n, pred_key, None, 2000 if probe else search.DEFAULT_MAX_NODES)
    entry = finish_entry(graph, result, entry)
    if probe:
        entry["exhausted"] = entry["size"] = entry["nodes"] = None
    entry["max_nodes"] = search.DEFAULT_MAX_NODES
    entry["exit"] = code
    return entry


def all_verify_ops():
    subs = [None] + list(range(O.SUBFAMILIES))
    for base in O.SMALL_BASES:
        for sub in subs:
            for variant in O.VARIANTS:
                yield {"kind": "cert", "base": base, "sub": sub, "variant": variant}
            yield {"kind": "check_modular", "base": base, "sub": sub, "violate": False}
        yield {"kind": "span", "base": base, "sub": None}
        yield {"kind": "check_modular", "base": base, "sub": None, "violate": True}
    for base in O.LARGE_BASES:
        for sub in range(O.SUBFAMILIES):
            for variant in O.VARIANTS:
                yield {"kind": "cert", "base": base, "sub": sub, "variant": variant}
            yield {"kind": "span", "base": base, "sub": sub}
    for n in (5, 6):
        for violate in (False, True):
            for extra in range(O.SUBFAMILIES):
                yield {"kind": "check_fractional", "n": n, "violate": violate, "extra": extra}
        yield {"kind": "gram", "n": n, "sub": None}
    for sub in range(O.SUBFAMILIES):
        yield {"kind": "gram", "n": 7, "sub": sub}
    for entry in O.BOUND_POOL:
        yield {"kind": "bound", "args": list(entry)}


def record_verify() -> dict:
    warm = worker.Warm("verify_warm", [], tiny=False, answers={"search": {}, "verify": {}})
    warm.setup()
    table = {
        "roundtrip": {"zeta_moebius": True, "moebius_zeta": True},
        "inversion": {"holds": True},
        "vanishing": {"implication_holds": True, "alpha_premise_agrees": True,
                      "alpha_zero_agrees": True},
    }
    for op in all_verify_ops():
        inputs = warm.prepare(op)
        got = warm.summary(op, inputs, warm.run(op, inputs))
        if op["kind"] == "gram" and not all(
                v for k, v in got.items() if k.endswith(("_hold", "_holds", "_congruent", "_matches"))
                and v is not None):
            raise SystemExit(f"Gram identities fail on a bisection family: {op} {got}")
        table[O.verify_key(op)] = got
    return table


def main() -> int:
    search_table = record_search()
    answers = {"max_nodes": O.MAX_NODES, "search": search_table}
    answers["cli"] = record_cli(search_table)
    answers["verify"] = record_verify()
    O.ANSWERS.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")
    print(f"wrote {O.ANSWERS}: {len(search_table)} searches, {len(answers['cli'])} commands, "
          f"{len(answers['verify'])} verify answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
