"""qlattice benchmark: cold CLI, warm search and warm verification workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Runs single-process and closed-loop with one client; at most one child
process exists at a time. Every operation's answer is checked against
perfbench/answers.json. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. A fuller record with
the environment goes to perfbench/.results/. See perfbench/BENCHMARK.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import ops as O  # noqa: E402
import refspeed  # noqa: E402
from tracer import summarize  # noqa: E402

WORKLOADS = ("cli_cold", "search_warm", "verify_warm")
# Fresh interpreters per warm run; setup_s is the median of their set-ups.
# Bursts of a few seconds on the host slow one set-up in three by half, so
# the short verify_warm set-up (about 1 s) is repeated more often.
WARM_CHILDREN = {"search_warm": 3, "verify_warm": 5}
CLI_SETUPS = 9          # input builds per cold run; setup_s is their median
CLI_CHEAP_REPEATS = 2   # least number of repeat passes over the cheap cold commands
CLI_TIMEOUT_S = 30.0    # per-command timeout; the slowest command takes about 6 s
CHILD_TIMEOUT_S = 150.0
PYTHON = sys.executable


class Failure(Exception):
    """The benchmark cannot run here (missing sources or answers)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(O.SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd, timeout, cwd=None):
    """(exit code or None on timeout, stdout, stderr); the child is always reaped."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=cwd)
    try:
        out, err = proc.communicate(timeout=timeout)
        return proc.returncode, out, err
    except subprocess.TimeoutExpired:
        proc.send_signal(signal.SIGTERM)
        try:
            out, err = proc.communicate(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        return None, out, err


# ---------------------------------------------------------------------------
# environment


def environment(args) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=O.ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((O.SRC / "qlattice").rglob("*.py")):
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# statistics


def tail(latencies: list[float]) -> dict:
    """The highest percentile that has at least ten samples beyond it."""
    xs = sorted(latencies)
    k = max(0, len(xs) - 11)
    return {"value": xs[k], "percentile": 100.0 * (k + 1) / len(xs),
            "beyond": len(xs) - k - 1, "samples": len(xs)}


def end_to_end(setups, pass_walls, records, n_ops, scale, details) -> dict:
    """End-to-end metrics from records [seconds, ok, proof, op index, ...].

    An operation's latency is its fastest repetition in the run: other
    tenants of a shared host only ever slow a call down, mostly in bursts of
    a few seconds. Every time is then multiplied by scale, which brings it to
    the reference host speed (refspeed.py) and so cancels the host's slower
    swings of speed.
    """
    samples = [[] for _ in range(n_ops)]
    proofs = {}
    for took, _, proof, i, *_ in records:
        samples[i].append(took)
        proofs.setdefault(i, proof)
    latencies = [min(xs) for xs in samples]
    attempts = [proof for proof in proofs.values() if proof is not None]
    ok = sum(1 for r in records if r[1])
    op_tail = tail(latencies)
    details["op_tail"] = op_tail
    details["setups_s"] = setups
    details["pass_walls_s"] = pass_walls
    details["op_samples_s"] = samples
    details["speed_scale"] = scale
    details["unscaled"] = {"setup_s": statistics.median(setups), "wall_s": sum(latencies),
                           "op_p50_s": statistics.median(latencies), "op_tail_s": op_tail["value"]}
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": (statistics.median(setups) * scale, "s"),
        "wall_s": (sum(latencies) * scale, "s"),
        "op_p50_s": (statistics.median(latencies) * scale, "s"),
        "op_tail_s": (op_tail["value"] * scale, "s"),
        "ok_ratio": (ok / len(records), "ratio"),
        "proved_ratio": (sum(attempts) / len(attempts) if attempts else 0.0, "ratio"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


LAYER_BUSY = (
    "gfspace.lattice", "gfspace.contains_mask", "gfspace.intersect", "gfspace.contains",
    "gfspace.containment_vector", "search.build_graph", "search.max_family",
    "families.check", "families.gram_analysis", "families.bound",
    "certificates.certificate_context", "certificates.rank_mod_p",
    "certificates.span_check", "moebius.transform", "moebius.inversion_check",
    "moebius.vanishing_check", "qcombin.zsigmondy_prime", "cli.render",
)
LAYER_CALLS = ("gfspace.intersect", "gfspace.contains", "gfspace.containment_vector",
               "certificates.rank_mod_p")
LAYER_SELF = ("certificates.independence_certificate",)
LAYER_COUNTS = ("search.build_graph.first_s", "search.nodes", "search.vertices", "search.edges",
                "families.check.pairs", "certificates.matrix_cells")


def per_layer(docs: list[dict], extra: dict) -> dict:
    spans: dict = {}
    counts: dict = {}
    for doc in docs:
        for name, entry in summarize(doc).items():
            agg = spans.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for key in agg:
                agg[key] += entry[key]
        for name, value in doc["counts"].items():
            counts[name] = counts.get(name, 0) + value
    get = lambda name, key: spans.get(name, {}).get(key, 0)
    out = {}
    for name in LAYER_BUSY:
        out[f"{name}.busy_s"] = (get(name, "busy_s"), "s")
    for name in LAYER_CALLS:
        out[f"{name}.calls"] = (get(name, "calls"), "count")
    for name in LAYER_SELF:
        out[f"{name}.self_s"] = (get(name, "self_s"), "s")
    for name in LAYER_COUNTS:
        out[name] = (counts.get(name, 0), "s" if name.endswith("_s") else "count")
    search_busy = get("search.max_family", "busy_s")
    pairs = counts.get("search.vertex_pairs", 0)
    out["search.nodes_per_s"] = (counts.get("search.nodes", 0) / search_busy if search_busy else 0.0, "1/s")
    out["search.edge_density"] = (counts.get("search.edges", 0) / pairs if pairs else 0.0, "ratio")
    for name, value in extra.items():
        out[name] = value
    return out


# ---------------------------------------------------------------------------
# cli_cold: every command in a fresh interpreter


def cli_template_args(argv: str, work: Path) -> list[str]:
    return [tok.format(W=work, D=O.TEST_DATA) for tok in argv.split()]


def golden_for(argv: str):
    for name, golden_argv in O.GOLDEN_ARGV.items():
        if golden_argv == argv:
            return (O.GOLDEN / name).read_bytes()
    return None


def check_cli(op, code, out, answers, families_mod) -> tuple[bool, object, str]:
    """(ok, proof flag or None, detail) for one cold command."""
    argv = op["argv"]
    if code is None:
        return False, None, f"timed out: {argv}"
    golden = golden_for(argv)
    if golden is not None:
        ok = code == 0 and out == golden
        proof = (code == 0) if argv.split()[0] in ("search", "certify") else None
        return ok, proof, "" if ok else f"stdout differs from the golden file: {argv}"
    ref = answers["cli"].get(argv)
    if op.get("search"):
        ref = answers["search"][op["search"]]
    if ref is None:
        return False, None, f"no recorded answer: {argv}"
    if argv.startswith("search"):
        try:
            payload = json.loads(out)
            family = families_mod.family_from_dict(payload["family"])
        except (ValueError, KeyError) as exc:
            return False, None, f"unreadable search output ({exc}): {argv}"
        exhausted = payload["exhausted"]
        if code != (0 if exhausted else 3):
            return False, exhausted, f"exit {code} disagrees with exhausted={exhausted}: {argv}"
        ok, detail = O.check_search(ref, family.ctx, family.members, payload["size"], exhausted,
                                    payload["nodes"], payload["vertices"], payload["edges"])
        return ok, exhausted, detail if not ok else ""
    ok = code == ref["exit"] and O.sha256(out) == ref["sha256"]
    proof = (code == 0) if argv.startswith("certify") else None
    return ok, proof, "" if ok else f"exit {code} or stdout differs from the record: {argv}"


def reference_child_s() -> float:
    start = time.monotonic()
    code, _, err = run_child([PYTHON, str(HERE / "refspeed.py")], CLI_TIMEOUT_S)
    if code != 0:
        raise Failure("reference child failed: " + err.decode(errors="replace")[-2000:])
    return time.monotonic() - start


def run_cli_cold(args, answers, tiny):
    work = HERE / ".work" / f"cli-{os.getpid()}"
    try:
        setups = []
        for _ in range(CLI_SETUPS):
            start = time.monotonic()
            code, _, err = run_child([PYTHON, str(HERE / "worker.py"), "inputs", str(work)],
                                     CHILD_TIMEOUT_S)
            if code != 0:
                raise Failure("input build failed: " + err.decode(errors="replace")[-2000:])
            setups.append(time.monotonic() - start)
        O.ensure_src_path()
        from qlattice import families as families_mod

        ops = O.make_ops("cli_cold", args.seed, answers, tiny)
        refs, commands = [], itertools.count()

        def one_pass(traced, tag, cheap_only=False):
            records, docs, per_command, overruns, startups = [], [], [], [], []
            failures = []
            for i, op in enumerate(ops):
                if cheap_only and not op.get("cheap"):
                    continue
                cmd = [PYTHON, "-m", "qlattice.cli"]
                trace_path = work / f"trace-{tag}-{i}.json"
                if traced:
                    cmd = [PYTHON, str(HERE / "cli_shim.py"), str(trace_path)]
                cmd += cli_template_args(op["argv"], work)
                if next(commands) % refspeed.REF_EVERY == 0:
                    refs.append(reference_child_s())
                start = time.monotonic()
                code, out, _ = run_child(cmd, CLI_TIMEOUT_S, cwd=work)
                took = time.monotonic() - start
                ok, proof, detail = check_cli(op, code, out, answers, families_mod)
                records.append([took, ok, proof, i])
                if not ok:
                    failures.append(detail)
                if op.get("budget") is not None:
                    overruns.append(took - op["budget"])
                if traced and trace_path.exists():
                    doc = json.loads(trace_path.read_text())
                    docs.append(doc)
                    extra = doc["extra"]
                    startups.append(extra["main_entry"] - start - extra["install_s"])
                    busy = summarize(doc)
                    per_command.append({
                        "argv": op["argv"], "wall_s": took,
                        "intersect_busy_s": busy.get("gfspace.intersect", {}).get("busy_s", 0.0),
                    })
            wall = sum(r[0] for r in records)
            return records, wall, failures, docs, per_command, overruns, startups

        details = {}
        if args.trace:
            base = one_pass(False, "plain")
            records, wall, failures, docs, per_command, overruns, startups = one_pass(True, "traced")
            heavy = [c for c in per_command if "--max-nodes" in c["argv"]
                     and not c["argv"].startswith("search --n 4 --q 2")]
            share = (sum(c["intersect_busy_s"] for c in heavy) / sum(c["wall_s"] for c in heavy)
                     if heavy else 0.0)
            details["per_command"] = per_command
            metrics = per_layer(docs, {
                "cli.startup_s": (statistics.median(startups) if startups else 0.0, "s"),
                "cli.budget_overrun_s": (sum(overruns), "s"),
                "cli.search_intersect_share": (share, "ratio"),
                "trace.overhead_ratio": (wall / base[1], "ratio"),
            })
            return metrics, records + base[0], failures + base[2], details
        # One pass through every command, then passes through the cheap ones
        # (light commands and GF(2)^4 searches) while another still fits in
        # the run, and at least CLI_CHEAP_REPEATS, so that every command the
        # median and the tail fall on is timed several times.
        began = time.monotonic()
        records, walls, failures, *_ = one_pass(False, "plain")
        walls = [walls]
        cheap = sum(r[0] for r in records if ops[r[3]].get("cheap"))
        while (len(walls) <= CLI_CHEAP_REPEATS
               or time.monotonic() - began + cheap <= args.seconds):
            recs, cheap, fails, *_ = one_pass(False, "plain", cheap_only=True)
            records += recs
            walls.append(cheap)
            failures += fails
        details["first_pass_s"] = [[ops[r[3]]["argv"], r[0]] for r in records[:len(ops)]]
        details["reference_child_s"] = refs
        scale = refspeed.REFERENCE_COLD_S / statistics.median(refs)
        metrics = end_to_end(setups, walls, records, len(ops), scale, details)
        return metrics, records, failures, details
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# warm workloads: set-up, then the operation list repeated in one process


def run_warm(args, answers, tiny):
    ops = O.make_ops(args.workload, args.seed, answers, tiny)
    work = HERE / ".work" / f"warm-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setups, plain, traced_walls, records, failures, docs = [], [], [], [], [], []
        children = WARM_CHILDREN[args.workload]
        for child in range(children):
            traced = bool(args.trace) and child > 0
            job = {
                "workload": args.workload, "ops": ops, "tiny": tiny, "trace": traced,
                "slice_s": args.seconds / children,
                "out_path": str(work / f"out-{child}.json"),
                "trace_path": str(work / f"trace-{child}.json"),
            }
            job_path = work / f"job-{child}.json"
            job_path.write_text(json.dumps(job))
            start = time.monotonic()
            code, _, err = run_child([PYTHON, str(HERE / "worker.py"), "warm", str(job_path)],
                                     CHILD_TIMEOUT_S)
            if code != 0:
                raise Failure(f"warm worker exited {code}: " + err.decode(errors="replace")[-2000:])
            result = json.loads(Path(job["out_path"]).read_text())
            setups.append(result["ready"] - start)
            (traced_walls if traced else plain).extend(result["passes"])
            records += result["ops"]
            failures += result["failures"]
            if traced:
                docs.append(json.loads(Path(job["trace_path"]).read_text()))
        details = {}
        if args.trace:
            overhead = statistics.median(traced_walls) / statistics.median(plain)
            metrics = per_layer(docs, {
                "cli.startup_s": (0.0, "s"),
                "cli.budget_overrun_s": (0.0, "s"),
                "cli.search_intersect_share": (0.0, "ratio"),
                "trace.overhead_ratio": (overhead, "ratio"),
            })
            return metrics, records, failures, details
        ref_samples = [[] for _ in ops]
        for record in records:
            ref_samples[record[3]].append(record[4])
        scale = refspeed.REFERENCE_S / refspeed.summary(ref_samples)
        metrics = end_to_end(setups, plain, records, len(ops), scale, details)
        return metrics, records, failures, details
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------


def run_workload(args) -> dict:
    for needed in (O.SRC / "qlattice" / "cli.py", O.ANSWERS, O.GOLDEN, O.TEST_DATA):
        if not needed.exists():
            raise Failure(f"missing {needed}: run from a full qlattice checkout")
    answers = O.load_answers()
    runner = run_cli_cold if args.workload == "cli_cold" else run_warm
    metrics, records, failures, details = runner(args, answers, args.tiny)
    failed = sum(1 for r in records if not r[1])
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"environment": environment(args), "result": result,
              "failures": failures[:50], "details": details}
    out_dir = HERE / ".results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for detail in failures[:10]:
        print("FAILED:", detail)
    print("environment:", json.dumps(record["environment"], sort_keys=True))
    return result


# ---------------------------------------------------------------------------
# self-test: every workload at a tiny size, traced and untraced


def self_test() -> int:
    spec = json.loads((O.ROOT / "BENCHMARK.json").read_text())
    expect = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    env_keys = {"python", "nproc", "cpu_model", "git_commit", "src_sha256", "seed"}
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [PYTHON, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            code, out, err = run_child(cmd, 170)
            problems = []
            try:
                result = json.loads(out.decode().strip().splitlines()[-1])
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"keys {sorted(result)}")
                if result["correct"] is not True or result["failed"] != 0:
                    problems.append("not correct")
                if not isinstance(result["attempted"], int) or result["attempted"] < 1:
                    problems.append("attempted < 1")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != expect[trace]:
                    problems.append(f"metrics differ: {sorted(set(got) ^ set(expect[trace]))}")
                for name, metric in result["metrics"].items():
                    if set(metric) != {"value", "unit"} or not isinstance(metric["value"], (int, float)):
                        problems.append(f"bad metric {name}")
                saved = json.loads((HERE / ".results" /
                                    f"{workload}-seed7-trace{trace}-tiny.json").read_text())
                if not env_keys <= set(saved["environment"]) or saved["result"] != result:
                    problems.append("result file incomplete")
            except (ValueError, IndexError, KeyError, OSError) as exc:
                problems.append(f"unreadable result ({exc}); exit {code}; "
                                f"{err.decode(errors='replace')[-500:]}")
            if code != 0:
                problems.append(f"exit {code}")
            print(f"{'PASS' if not problems else 'FAIL'} {workload} trace={trace} "
                  + "; ".join(problems))
            bad += bool(problems)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result = run_workload(args)
    except Failure as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
