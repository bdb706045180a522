"""Benchmark child process: one fresh interpreter per warm run or input build.

    python3 perfbench/worker.py inputs <work_dir>
    python3 perfbench/worker.py warm <job.json>

"inputs" writes the family and profile files the cold CLI commands read.
"warm" sets up lattices and caches, then repeats the job's operation list
while another pass fits in its time slice, checking every answer outside the timed
region, and writes its timings (and, when traced, its spans) as JSON.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import ops as O  # noqa: E402
import refspeed  # noqa: E402

O.ensure_src_path()


def _uniform(base: str):
    from qlattice import search

    k, s, q = (int(x) for x in base.split(","))
    return search.gen_example_uniform(k, s, q)


def _subfamily(family, tag: str, idx: int, size: int):
    from qlattice.families import Family

    rng = random.Random(f"sub:{tag}:{idx}")
    chosen = sorted(rng.sample(range(len(family)), min(size, len(family))))
    return Family(family.ctx, family.n, tuple(family[i] for i in chosen))


def write_inputs(work: Path, search_table: dict | None = None) -> None:
    """Family and profile files for the cold CLI workload."""
    from qlattice import families, search

    work.mkdir(parents=True, exist_ok=True)

    def dump(name, data):
        (work / name).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")

    for base in ("3,2,2", "2,2,3"):
        family, profile = _uniform(base)
        stem = "uniform_" + base.replace(",", "_")
        dump(stem + ".json", families.family_to_dict(family))
        dump(stem + ".profile.json", profile.to_dict())
    dump("bisection_7_2.json", families.family_to_dict(search.gen_example_bisection(7, 2).family))
    if search_table is None:
        search_table = O.load_answers()["search"]
    for ref in search_table.values():
        kind, body = O.parse_pred(ref["pred"])
        if kind == "M":
            b, K, L = body
            dump(O.profile_file(ref["pred"]), {"b": b, "K": list(K), "L": list(L)})


class Warm:
    """Set-up state and per-operation execution for the warm workloads."""

    def __init__(self, workload: str, ops: list[dict], tiny: bool, answers: dict | None = None):
        from qlattice import certificates, families, gfspace, moebius, search

        self.gf, self.fam, self.cert = gfspace, families, certificates
        self.mb, self.srch = moebius, search
        self.answers = answers if answers is not None else O.load_answers()
        self.workload, self.tiny = workload, tiny
        self.ops = ops
        self.cache: dict = {}

    # ---- set-up: every lattice and cache the timed operations rely on

    def setup(self):
        if self.workload == "search_warm":
            ambients = O.SEARCH_AMBIENTS
            if self.tiny:
                ambients = sorted({(self._ref(op)["q"], self._ref(op)["n"]) for op in self.ops})
            half = self.fam.FractionSet(((1, 2),))
            for q, n in ambients:
                ctx = self.gf.field(q)
                self.gf.lattice(ctx, n)
                self.srch.build_graph(ctx, n, half)
            return
        ambients = ((2, 3),) if self.tiny else ((2, 5), (3, 4))
        for q, n in ambients:
            self.gf.lattice(self.gf.field(q), n).contains_mask
        bases = O.SMALL_BASES[:2] if self.tiny else O.SMALL_BASES + O.LARGE_BASES
        for base in bases:
            family, profile = _uniform(base)
            cctx = self.cert.certificate_context(family.ctx, family.n, profile)
            self.cache[base] = (family, profile, cctx)
        for n in (5,) if self.tiny else (5, 6, 7):
            self.cache[f"bisection {n}"] = self.srch.gen_example_bisection(n, 2)

    def _ref(self, op):
        return self.answers["search"][op["key"]]

    # ---- inputs of one operation, built outside the timed region

    def _base_family(self, op):
        family, profile, cctx = self.cache[op["base"]]
        if op.get("sub") is not None:
            key = (op["base"], op["sub"])
            if key not in self.cache:
                size = O.LARGE_SUB_SIZE if op["base"] in O.LARGE_BASES else max(2, len(family) // 3)
                self.cache[key] = _subfamily(family, op["base"], op["sub"], size)
            family = self.cache[key]
        return family, profile, cctx

    def prepare(self, op):
        kind = op["kind"]
        if kind == "search":
            ref = self._ref(op)
            pkind, body = O.parse_pred(ref["pred"])
            pred = (self.fam.FractionSet(body) if pkind == "F"
                    else self.fam.ModularProfile(*body))
            dims = tuple(ref["dims"]) if ref["dims"] else None
            limits = self.srch.SearchLimits(max_nodes=O.MAX_NODES, dim_filter=dims)
            return self.gf.field(ref["q"]), ref["n"], pred, limits
        if kind in ("cert", "span"):
            return self._base_family(op)
        if kind == "check_modular":
            family, profile, _ = self._base_family(op)
            if op["violate"]:
                profile = self.fam.ModularProfile(profile.b, profile.K, profile.L[1:])
            return family, profile
        if kind == "check_fractional":
            example = self.cache[f"bisection {op['n']}"]
            family = example.family
            if op["violate"]:
                family = self._with_stray_plane(family, op["extra"])
            return family, example.fractions
        if kind == "gram":
            family = self.cache[f"bisection {op['n']}"].family
            if op["sub"] is not None:
                family = _subfamily(family, f"bisection {op['n']}", op["sub"], O.GRAM_SUB_SIZE)
            return family
        if kind == "bound":
            return op["args"]
        lat = self.gf.lattice(self.gf.field(op["q"]), op["n"])
        p = 7 if op["q"] == 2 else 5
        rng = random.Random(op["rseed"])
        if kind == "roundtrip":
            return self.mb.LatticeFunction.random(lat, p, rng)
        if kind == "inversion":
            masks = lat.contains_mask
            upper = rng.choice([w for w in range(len(lat)) if lat.dims[w] >= 2])
            lower = rng.choice([u for u in range(len(lat)) if (masks[upper] >> u) & 1])
            alpha = self.mb.LatticeFunction.random(lat, p, rng)
            return alpha, lat.subspaces[lower], lat.subspaces[upper]
        g = rng.randrange(1, op["n"] + 1)
        H = sorted(rng.sample(range(op["n"] + 1), rng.randrange(1, op["n"] + 1)))
        values = [rng.randrange(p) if (not op["low"] or d < g) else 0 for d in lat.dims]
        return self.mb.LatticeFunction(lat, p, tuple(values)), H, g

    def _with_stray_plane(self, family, extra):
        """The family plus one plane that misses the common line."""
        key = ("stray", family.n, extra)
        if key not in self.cache:
            gf = self.gf
            planes = [s for s in gf.enumerate_subspaces(family.ctx, family.n, 2)
                      if s.rows[0][0] == 0 and s not in family.members]
            stray = planes[random.Random(f"stray:{extra}").randrange(len(planes))]
            self.cache[key] = self.fam.Family(family.ctx, family.n, family.members + (stray,))
        return self.cache[key]

    # ---- the timed call

    def run(self, op, inputs):
        kind = op["kind"]
        if kind == "search":
            ctx, n, pred, limits = inputs
            graph = self.srch.build_graph(ctx, n, pred, limits)
            return graph, self.srch.max_family(graph, limits)
        if kind == "cert":
            family, _, cctx = inputs
            return self.cert.independence_certificate(cctx, family, op["variant"])
        if kind == "span":
            family, _, cctx = inputs
            sample = [("g_xy", x, 1) for x in range(cctx.s - cctx.r + 1)]
            sample += [("g_i", i) for i in range(min(2, len(family)))]
            return self.cert.span_check(cctx, family, sample)
        if kind == "check_modular":
            return self.fam.check_modular(*inputs)
        if kind == "check_fractional":
            return self.fam.check_fractional(*inputs)
        if kind == "gram":
            return self.fam.gram_analysis(inputs, 2, 1, 1, 1)
        if kind == "bound":
            return self._bound(*inputs)
        if kind == "roundtrip":
            alpha = inputs
            there = self.mb.moebius_transform(self.mb.zeta_transform(alpha))
            back = self.mb.zeta_transform(self.mb.moebius_transform(alpha))
            return alpha, there, back
        if kind == "inversion":
            return self.mb.generalized_inversion_check(*inputs)
        return self.mb.vanishing_check(*inputs)

    def _bound(self, theorem, n, q, params):
        fam = self.fam
        if theorem == "main":
            b, K, L = params
            return fam.bound_theorem1(n, q, fam.ModularProfile(b, tuple(K), tuple(L)))
        if theorem == "frankl-graham":
            k, b, mus = params
            return fam.bound_frankl_graham(n, q, k, b, tuple(mus))
        if theorem == "frac":
            return fam.bound_frac_general(n, q, fam.FractionSet(tuple(map(tuple, params))))
        a, b = params
        return fam.bound_singleton(n, q, a, b)

    # ---- answers, summarised and checked outside the timed region

    def summary(self, op, inputs, raw) -> dict:
        kind = op["kind"]
        if kind == "cert":
            return {"rank": raw.rank, "verdict": raw.verdict, "rows": len(raw.rows),
                    "cols": len(raw.points), "p": raw.p}
        if kind == "span":
            return {"solvable": list(raw.solvable)}
        if kind in ("check_modular", "check_fractional"):
            return {"ok": raw.ok, "witness": list(raw.witness) if raw.witness else None}
        if kind in ("gram", "bound"):
            return raw.to_json_dict()
        if kind == "roundtrip":
            alpha, there, back = raw
            return {"zeta_moebius": there.values == alpha.values,
                    "moebius_zeta": back.values == alpha.values}
        if kind == "inversion":
            return {"holds": raw.holds}
        alpha, H, g = inputs
        premise = all(v == 0 for v, d in zip(alpha.values, alpha.lat.dims) if d >= g)
        return {"implication_holds": raw.implication_holds,
                "alpha_premise_agrees": raw.alpha_vanishes_from_g == premise,
                "alpha_zero_agrees": raw.alpha_is_zero == (not any(alpha.values))}

    def check(self, op, inputs, raw):
        """(ok, proof flag or None, detail) for one operation."""
        if op["kind"] == "search":
            graph, result = raw
            ok, detail = O.check_search(
                self._ref(op), graph.ctx, result.family.members, result.size,
                result.exhausted, result.nodes, graph.size, graph.edge_count())
            return ok, result.exhausted, detail
        got = self.summary(op, inputs, raw)
        want = self.answers["verify"].get(op["key"])
        proof = got["verdict"] == "independent" if op["kind"] == "cert" else None
        if got != want:
            return False, proof, f"{op['key']}: got {got}, want {want}"
        return True, proof, ""


def run_warm(job: dict) -> dict:
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        import qlattice  # noqa: F401

        tracer = Tracer()
        tracer.install()
    warm = Warm(job["workload"], job["ops"], job["tiny"])
    warm.setup()
    ready = time.monotonic()
    passes, records, failures = [], [], []
    checked: dict = {}
    clock = time.perf_counter
    while True:
        pass_busy = 0.0
        for i, op in enumerate(job["ops"]):
            if tracer:
                tracer.op = "prepare"
            inputs = warm.prepare(op)
            ref = refspeed.sample()
            if tracer:
                tracer.op = f"{len(passes)}:{i}"
            start = clock()
            raw = warm.run(op, inputs)
            took = clock() - start
            if tracer:
                tracer.op = "check"
            pass_busy += took
            memo = _fingerprint(i, op, raw)
            verdict = checked.get(memo) if memo else None
            if verdict is None:
                verdict = warm.check(op, inputs, raw)
                if memo:
                    checked[memo] = verdict
            ok, proof, detail = verdict
            records.append([took, ok, proof, i, ref])
            if not ok:
                failures.append(detail)
        passes.append(pass_busy)
        if time.monotonic() - ready + pass_busy > job["slice_s"]:
            break
    out = {"ready": ready, "passes": passes, "ops": records, "failures": failures[:20]}
    if tracer:
        tracer.dump(job["trace_path"])
    return out


def _fingerprint(i, op, raw):
    """Identity of a search answer, so a repeated result is checked once."""
    if op["kind"] != "search":
        return None
    graph, result = raw
    return (i, graph.size, graph.edge_count(), result.size, result.exhausted,
            result.nodes, result.family.members)


def main(argv):
    if argv[0] == "inputs":
        write_inputs(Path(argv[1]))
        return 0
    job_path = Path(argv[1])
    job = json.loads(job_path.read_text())
    result = run_warm(job)
    Path(job["out_path"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
