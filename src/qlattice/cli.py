"""Command-line surface: every operation as a subcommand with stable output.

Output formats are json (default), csv, and table; all three carry the same
data. Exit codes: 0 success or verdict pass, 1 verdict fail, 2 usage or
domain error, 3 resource or budget error. Domain-level exceptions (moduli
with no usable prime) exit 2; reported exception markers and exhausted
budgets inside result payloads are data, not crashes. No exception escapes
main() as a traceback: running out of memory, stack depth or float range
exits 3, and any other exception exits 2; either way stderr carries one JSON
error object naming the exception type. Integers print exactly, however many
digits they have (qbinom's size ceiling bounds them). Each command runs
inside one budgets.budget scope: --lattice-budget and --time-budget hold
for the whole command and are gone when main() returns, and the time
budget counts from the start of the command, lattice and graph included.
They are the only way to set a command's budgets; no environment variable
is read.
enum, search and example call field(q) before any size check: it checks q
at once and builds its arithmetic tables only when they are first read, so a
bad q is reported first, and a count or a budget refusal never pays for them.

A command loads only the layers it runs. This module loads errors, qcombin,
budgets and options (the parser's --variant choices and --max-nodes
default); each handler imports what it calls from gfspace, families,
certificates and search when it runs, so qbinom, altsum and zsigmondy load
none of those layers, enum only gfspace, and no command loads moebius.
"""

from __future__ import annotations

import argparse
import json
import sys

from .budgets import budget
from .errors import DomainError, ResourceLimitError
from .qcombin import alt_sum, qbinom, zsigmondy_exception, zsigmondy_prime
from .options import DEFAULT_MAX_NODES, VARIANTS

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


# ---------------------------------------------------------------------------
# rendering


def _compact(value) -> str:
    if isinstance(value, str):
        return value
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def render(payload, fmt: str) -> str:
    """Serialize one payload; scalars print bare in every format."""
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if not isinstance(payload, dict):
        return f"{payload}\n"
    keys = sorted(payload)
    if fmt == "table":
        width = max(len(k) for k in keys) if keys else 0
        lines = [f"{k.ljust(width)}  {_compact(payload[k])}" for k in keys]
        return "\n".join(lines) + "\n"
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(keys)
    writer.writerow([_compact(payload[k]) for k in keys])
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# argument helpers


def _int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise DomainError(f"expected a comma-separated integer list, got {text!r}")


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path} is not valid JSON: {exc}")


def _load_family(path: str) -> "Family":
    from .families import family_from_dict

    return family_from_dict(_load_json(path))


def _profile_from_args(args) -> "ModularProfile":
    from .families import ModularProfile, profile_from_dict

    if getattr(args, "profile", None):
        return profile_from_dict(_load_json(args.profile))
    if args.b is None or args.K is None or args.L is None:
        raise DomainError("give --profile, or all of --b, --K, --L")
    return ModularProfile(args.b, _int_list(args.K), _int_list(args.L))


def _member_indices(family: "Family", sub: "Family") -> list[int]:
    position = {m: i for i, m in enumerate(family)}
    return [position[m] for m in sub]


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (payload, exit_code), and imports the
# gfspace, families, certificates and search names it calls when it runs


def _cmd_qbinom(args):
    return qbinom(args.n, args.k, args.q), EXIT_OK


def _cmd_altsum(args):
    return alt_sum(args.n, args.q), EXIT_OK


def _cmd_zsigmondy(args):
    marker = zsigmondy_exception(args.q, args.b)
    if marker is not None:
        payload = {
            "q": args.q,
            "b": args.b,
            "prime": None,
            "order": None,
            "exception": {"clause": marker.clause, "message": marker.message()},
        }
        return payload, EXIT_OK
    kwargs = {} if args.ceiling is None else {"ceiling": args.ceiling}
    prime = zsigmondy_prime(args.q, args.b, **kwargs)
    return {
        "q": args.q,
        "b": args.b,
        "prime": prime,
        "order": args.b,
        "exception": None,
    }, EXIT_OK


def _cmd_enum(args):
    from .gfspace import enumerate_subspaces, field

    ctx = field(args.q)
    payload = {
        "n": args.n,
        "q": args.q,
        "dim": args.dim,
        "count": qbinom(args.n, args.dim, args.q),
    }
    if not args.count_only:
        payload["subspaces"] = [
            [list(row) for row in space.rows]
            for space in enumerate_subspaces(ctx, args.n, args.dim)
        ]
    return payload, EXIT_OK


def _cmd_check(args):
    from .families import (
        check_fractional,
        check_modular,
        fractions_from_strings,
        profile_from_dict,
    )

    family = _load_family(args.family)
    if args.profile:
        kind = "modular"
        result = check_modular(family, profile_from_dict(_load_json(args.profile)))
    else:
        kind = "fractional"
        result = check_fractional(family, fractions_from_strings(args.fractions.split(",")))
    payload = {"kind": kind, "size": len(family), **result.to_json_dict()}
    return payload, EXIT_OK if result.ok else EXIT_VERDICT


def _cmd_bound(args):
    from .families import (
        bound_frac_general,
        bound_frankl_graham,
        bound_singleton,
        bound_theorem1,
        fractions_from_strings,
        parse_fraction,
    )

    if args.theorem == "main":
        report = bound_theorem1(args.n, args.q, _profile_from_args(args))
    elif args.theorem == "frac":
        if not args.fractions:
            raise DomainError("--theorem frac needs --fractions")
        report = bound_frac_general(
            args.n, args.q, fractions_from_strings(args.fractions.split(","))
        )
    elif args.theorem == "singleton":
        if not args.frac:
            raise DomainError("--theorem singleton needs --frac a/b")
        a, b = parse_fraction(args.frac)
        report = bound_singleton(args.n, args.q, a, b)
    else:
        if args.k is None or args.b is None or args.mus is None:
            raise DomainError("--theorem frankl-graham needs --k, --b, --mus")
        report = bound_frankl_graham(args.n, args.q, args.k, args.b, _int_list(args.mus))
    return report.to_json_dict(), EXIT_OK


def _cmd_certify(args):
    from .families import profile_from_dict
    from .certificates import certificate_context, independence_certificate

    family = _load_family(args.family)
    profile = profile_from_dict(_load_json(args.profile))
    cctx = certificate_context(family.ctx, family.n, profile, p=args.prime)
    cert = independence_certificate(cctx, family, args.variant)
    payload = {"variant": args.variant, **cert.to_json_dict()}
    return payload, EXIT_OK if cert.verdict == "independent" else EXIT_VERDICT


def _cmd_partition(args):
    from .families import partition_jk, partition_mod_prime

    family = _load_family(args.family)
    if args.prime is not None:
        cells = partition_mod_prime(family, args.prime)
        payload = {
            "kind": "mod-prime",
            "p": args.prime,
            "cells": {
                str(res): _member_indices(family, sub) for res, sub in cells.items()
            },
        }
        return payload, EXIT_OK
    partition = partition_jk(family, args.base)
    return {"kind": "power-cells", "b": args.base, **partition.to_json_dict()}, EXIT_OK


def _cmd_gram(args):
    from .families import gram_analysis, parse_fraction, power_cell

    family = _load_family(args.family)
    a, denom = parse_fraction(args.frac)
    if denom != args.base:
        raise DomainError(
            f"--frac denominator {denom} must equal --base {args.base}"
        )
    if len(family) == 0:
        raise DomainError("gram analysis needs a nonempty family")
    coords = power_cell(family[0].dim, args.base)
    if coords is None:
        raise DomainError(
            f"member 0 (dim {family[0].dim}) lies in no power cell under base {args.base}"
        )
    j, k, _ = coords
    report = gram_analysis(family, args.base, a, j, k)
    payload = {"base": args.base, "a": a, "j": j, "k": k, **report.to_json_dict()}
    return payload, EXIT_OK if report.rank_lower_bound_holds else EXIT_VERDICT


def _cmd_search(args):
    from .families import fractions_from_strings, profile_from_dict
    from .gfspace import field
    from .search import SearchLimits, build_graph, max_family

    ctx = field(args.q)
    if args.profile:
        predicate = profile_from_dict(_load_json(args.profile))
    else:
        predicate = fractions_from_strings(args.fractions.split(","))
    dims = None if args.dims is None else _int_list(args.dims)
    limits = SearchLimits(max_nodes=args.max_nodes, dim_filter=dims)
    graph = build_graph(ctx, args.n, predicate, limits)
    result = max_family(graph, limits)
    payload = {
        "vertices": graph.size,
        "edges": graph.edge_count(),
        **result.to_json_dict(),
    }
    return payload, EXIT_OK if result.exhausted else EXIT_RESOURCE


def _cmd_example(args):
    from .families import family_to_dict, fractions_to_strings
    from .search import gen_example_bisection, gen_example_frac_uniform, gen_example_uniform

    if args.kind == "uniform":
        if args.k is None or args.s is None or args.q is None:
            raise DomainError("example uniform needs --k, --s, --q")
        family, profile = gen_example_uniform(args.k, args.s, args.q)
        payload = {
            "kind": "uniform",
            "size": len(family),
            "family": family_to_dict(family),
            "profile": profile.to_dict(),
        }
    elif args.kind == "frac-uniform":
        if args.s is None or args.n is None or args.q is None:
            raise DomainError("example frac-uniform needs --s, --n, --q")
        family, fractions, violations = gen_example_frac_uniform(args.s, args.n, args.q)
        payload = {
            "kind": "frac-uniform",
            "size": len(family),
            "family": family_to_dict(family),
            "fractions": fractions_to_strings(fractions),
            "violations": [list(pair) for pair in violations],
        }
    else:
        if args.n is None or args.q is None:
            raise DomainError("example bisection needs --n, --q")
        family, fractions = gen_example_bisection(args.n, args.q)
        payload = {
            "kind": "bisection",
            "size": len(family),
            "family": family_to_dict(family),
            "fractions": fractions_to_strings(fractions),
        }
    return payload, EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv", "table"), default="json", help="output format"
    )
    common.add_argument(
        "--lattice-budget", type=int, default=None, help="override the subspace-count budget"
    )

    parser = argparse.ArgumentParser(
        prog="qlattice",
        description="Subspace-family combinatorics: counts, checks, bounds, certificates, search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qbinom", parents=[common], help="Gaussian binomial [n k] over GF(q)")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(handler=_cmd_qbinom)

    p = sub.add_parser("altsum", parents=[common], help="signed q-weighted column sum")
    p.add_argument("n", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(handler=_cmd_altsum)

    p = sub.add_parser(
        "zsigmondy", parents=[common], help="prime with multiplicative order b, or the exception"
    )
    p.add_argument("q", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--ceiling", type=int, default=None, help="trial-division ceiling")
    p.set_defaults(handler=_cmd_zsigmondy)

    p = sub.add_parser("enum", parents=[common], help="enumerate subspaces of one dimension")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(handler=_cmd_enum)

    p = sub.add_parser("check", parents=[common], help="verify a family against a discipline")
    p.add_argument("--family", required=True, help="family JSON path")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--profile", help="profile JSON path")
    group.add_argument("--fractions", help='comma list like "1/2,2/3"')
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("bound", parents=[common], help="evaluate a size bound")
    p.add_argument(
        "--theorem", required=True, choices=("main", "frac", "singleton", "frankl-graham")
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--profile", help="profile JSON path (theorem main)")
    p.add_argument("--b", type=int, default=None, help="modulus (main inline, frankl-graham)")
    p.add_argument("--K", default=None, help="comma list of member residues (main inline)")
    p.add_argument("--L", default=None, help="comma list of intersection residues (main inline)")
    p.add_argument("--fractions", default=None, help="comma list (theorem frac)")
    p.add_argument("--frac", default=None, help="single a/b (theorem singleton)")
    p.add_argument("--k", type=int, default=None, help="member dimension (frankl-graham)")
    p.add_argument("--mus", default=None, help="comma list of residues (frankl-graham)")
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("certify", parents=[common], help="rank certificate for a family")
    p.add_argument("--family", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--variant", required=True, choices=VARIANTS)
    p.add_argument("--prime", type=int, default=None, help="override the derived prime")
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("partition", parents=[common], help="split a family by dimension")
    p.add_argument("--family", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--prime", type=int, help="partition by dimension mod a prime")
    group.add_argument("--base", type=int, help="partition into power cells of a base")
    p.set_defaults(handler=_cmd_partition)

    p = sub.add_parser("gram", parents=[common], help="Gram-matrix analysis of a power cell")
    p.add_argument("--family", required=True)
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--frac", required=True, help="the family fraction a/b")
    p.set_defaults(handler=_cmd_gram)

    p = sub.add_parser("search", parents=[common], help="exhaustive maximum-family search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--profile", help="profile JSON path")
    group.add_argument("--fractions", help='comma list like "1/2"')
    p.add_argument("--max-nodes", type=int, default=DEFAULT_MAX_NODES)
    p.add_argument("--time-budget", type=float, default=None, help="seconds for the whole command")
    p.add_argument("--dims", default=None, help="comma list restricting vertex dimensions")
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("example", parents=[common], help="generate a canonical family")
    p.add_argument("kind", choices=("uniform", "frac-uniform", "bisection"))
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.set_defaults(handler=_cmd_example)

    return parser


def _render_exact(payload, fmt: str) -> str:
    """render() with Python's limit on int-to-decimal digits lifted for the call.

    The limit (4300 digits by default from Python 3.11 on) is process-wide,
    so it is restored before returning to an in-process caller.
    """
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        return render(payload, fmt)
    saved = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        return render(payload, fmt)
    finally:
        sys.set_int_max_str_digits(saved)


def _error_payload(exc: Exception) -> dict:
    """The stderr object of a failed command: kind, message, and clause or partial if set."""
    payload = {"error": {"kind": type(exc).__name__, "message": str(exc)}}
    clause = getattr(exc, "clause", "")
    if clause:
        payload["error"]["clause"] = clause
    partial = getattr(exc, "partial", None)
    if partial is not None:
        # As in the message, a count over 256 bits is named by its bit length,
        # so a JSON reader's default limit on digits can still parse stderr.
        payload["error"]["partial"] = {
            key: f"at least 2^{value.bit_length() - 1}"
            if isinstance(value, int) and value.bit_length() > 256
            else value
            for key, value in partial.items()
        }
    return payload


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return code if code == 0 else EXIT_USAGE

    try:
        with budget(args.lattice_budget, getattr(args, "time_budget", None)):
            payload, code = args.handler(args)
        text = _render_exact(payload, args.format)
    except (ResourceLimitError, MemoryError, RecursionError, OverflowError) as exc:
        sys.stderr.write(render(_error_payload(exc), "json"))
        return EXIT_RESOURCE
    except Exception as exc:
        # the command-line boundary: any other error exits 2, never a traceback
        sys.stderr.write(render(_error_payload(exc), "json"))
        return EXIT_USAGE

    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
