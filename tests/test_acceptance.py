"""Acceptance gate: thirteen end-to-end criteria, each with a runtime ceiling.

Every test prints one PASS/FAIL line so a transcript of this module reads as
a checklist. The ceilings are generous on purpose; blowing one usually means
an algorithmic regression, not a slow machine.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import random
import time

from qlattice import (
    Family,
    FractionSet,
    LatticeFunction,
    ModularProfile,
    SearchLimits,
    ZsigmondyException,
    alt_sum,
    bound_frac_general,
    bound_singleton,
    bound_theorem1,
    build_graph,
    certificate_context,
    check_fractional,
    check_modular,
    containment_vector,
    enumerate_subspaces,
    field,
    fractional_cell_bound,
    fractions_from_strings,
    gen_example_bisection,
    gen_example_uniform,
    generalized_inversion_check,
    gram_analysis,
    independence_certificate,
    is_prime,
    lattice,
    max_family,
    moebius_transform,
    multiplicative_order,
    partition_dims,
    partition_jk,
    product_reduce,
    qbinom,
    zeta_transform,
    zsigmondy_prime,
)


@contextlib.contextmanager
def criterion(num: int, text: str, limit: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL {text}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < limit else "FAIL"
    print(
        f"ACCEPTANCE {num:02d} {verdict} {text} ({elapsed:.2f}s, limit {limit:g}s)",
        flush=True,
    )
    assert elapsed < limit, f"criterion {num} exceeded {limit}s: {elapsed:.2f}s"


def test_01_enumeration_matches_formula():
    with criterion(1, "enumeration count equals the product formula", 10.0):
        for q, n_max in ((2, 5), (3, 4), (4, 3)):
            ctx = field(q)
            for n in range(n_max + 1):
                for d in range(n + 1):
                    count = sum(1 for _ in enumerate_subspaces(ctx, n, d))
                    assert count == qbinom(n, d, q)


def test_02_transform_round_trip():
    with criterion(2, "zeta and its inverse cancel on random functions", 30.0):
        rng = random.Random(20260817)
        for q, n, p in ((2, 3, 7), (3, 2, 5)):
            lat = lattice(field(q), n)
            for _ in range(100):
                alpha = LatticeFunction.random(lat, p, rng)
                assert moebius_transform(zeta_transform(alpha)) == alpha
                assert zeta_transform(moebius_transform(alpha)) == alpha


def test_03_inversion_identity_exhaustive():
    with criterion(3, "interval and join-fiber sums agree on all nested pairs", 60.0):
        lat = lattice(field(2), 3)
        masks = lat.contains_mask
        nested = [
            (w, y)
            for yi, y in enumerate(lat.subspaces)
            for wi, w in enumerate(lat.subspaces)
            if (masks[yi] >> wi) & 1
        ]
        rng = random.Random(32)
        for _ in range(20):
            alpha = LatticeFunction.random(lat, 7, rng)
            for w, y in nested:
                assert generalized_inversion_check(alpha, w, y).holds


def test_04_alternating_sum_vanishes():
    with criterion(4, "signed lattice sums vanish in positive dimension", 1.0):
        for q in (2, 3, 4, 5):
            assert alt_sum(0, q) == 1
            for n in range(1, 9):
                assert alt_sum(n, q) == 0


def test_05_full_order_prime_table():
    with criterion(5, "full-order prime exists except at the two known shapes", 5.0):
        excluded = {(3, 2), (7, 2), (2, 6)}
        for q in (2, 3, 4, 5, 7, 8, 9):
            for b in range(2, 11):
                result = zsigmondy_prime(q, b)
                if (q, b) in excluded:
                    assert isinstance(result, ZsigmondyException)
                    expect = "q_2_b_6" if (q, b) == (2, 6) else "q_plus_one_power_of_two"
                    assert result.clause == expect
                else:
                    assert isinstance(result, int)
                    assert multiplicative_order(q, result) == b


def test_06_tight_bound_reproduction():
    with criterion(6, "plane family meets its bound four independent ways", 30.0):
        example = gen_example_uniform(2, 1, 2)
        profile = example.profile
        assert (profile.b, profile.K, profile.L) == (3, (2,), (1,))
        assert check_modular(example.family, profile)
        report = bound_theorem1(3, 2, profile)
        assert report.bound == 7
        assert len(example.family) == 7
        result = max_family(build_graph(field(2), 3, profile))
        assert result.exhausted
        assert result.size == 7


def _disjoint_profiles(b: int):
    residues = range(b)
    for k_len in range(1, b):
        for K in itertools.combinations(residues, k_len):
            rest = [r for r in residues if r not in K]
            for l_len in range(1, len(rest) + 1):
                for L in itertools.combinations(rest, l_len):
                    yield ModularProfile(b, K, L)


def test_07_bound_dominance_sweep():
    with criterion(7, "no exhausted search beats its size bound", 900.0):
        ctx = field(2)
        profiles = [p for b in (3, 4, 5) for p in _disjoint_profiles(b)]
        assert len(profiles) == 242
        for profile in profiles:
            for n in range(1, 5):
                result = max_family(build_graph(ctx, n, profile))
                assert result.exhausted
                assert result.size <= bound_theorem1(n, 2, profile).bound


def test_08_certificate_rank():
    with criterion(8, "tight-family certificate has full rank", 5.0):
        example = gen_example_uniform(2, 1, 2)
        cctx = certificate_context(field(2), 3, example.profile, p=7)
        cert = independence_certificate(cctx, example.family, "swallow1")
        member_rows = [r for r in cert.rows if r[0] == "g_i"]
        grid_rows = [r for r in cert.rows if r[0] == "g_xy"]
        assert len(member_rows) == 7
        assert grid_rows == [("g_xy", 0, 1)]
        assert len(cert.points) == 16
        assert cert.rank == 8
        assert cert.verdict == "independent"


def test_09_product_reduction_pointwise():
    with criterion(9, "indicator products reduce to a single indicator", 60.0):
        ctx = field(2)
        n = 4
        lat = lattice(ctx, n)
        vectors = [containment_vector(t, 3) for t in lat.subspaces]
        lines = qbinom(n, 1, 2)
        checked = 0
        for x in range(3):
            for y in range(1, qbinom(n, x, 2) + 1):
                for z in range(1, lines + 1):
                    idx = product_reduce(x, y, z, ctx, n)
                    for v in vectors:
                        assert v.get(x, y) * v.get(1, z) == v.get(idx.dim, idx.pos)
                    checked += 1
        assert checked == (1 + 15 + 35) * lines


def test_10_partition_reconstruction_fuzz():
    with criterion(10, "digit partition reconstructs every dimension list", 5.0):
        rng = random.Random(1009)
        for _ in range(10_000):
            b = rng.choice((2, 3, 5, 7))
            length = rng.randrange(0, 10)
            dims = [rng.randrange(0, 40) * b for _ in range(length)]
            if rng.random() < 0.5:
                stray = rng.randrange(1, 200)
                if stray % b != 0:
                    dims.append(stray)
            rng.shuffle(dims)
            cells, leftovers = partition_dims(dims, b)
            seen = sorted(i for idxs in cells.values() for i in idxs)
            seen += sorted(leftovers)
            assert sorted(seen) == list(range(len(dims)))
            for i in leftovers:
                assert dims[i] == 0 or dims[i] % b != 0
            for (j, k), idxs in cells.items():
                assert 1 <= j < b and k >= 1
                for i in idxs:
                    r, rem = divmod(dims[i] - j * b**k, b ** (k + 1))
                    assert rem == 0 and r >= 0


def test_11_bisection_pipeline():
    with criterion(11, "halving families stay within the singleton bound", 60.0):
        for n, size, cap in ((3, 3, 18), (4, 7, 34), (5, 15, 98)):
            example = gen_example_bisection(n, 2)
            assert check_fractional(example.family, example.fractions)
            assert len(example.family) == size == qbinom(n - 1, 1, 2)
            report = bound_singleton(n, 2, 1, 2)
            assert report.bound == cap
            assert size <= report.bound
            partition = partition_jk(example.family, 2)
            assert not partition.leftovers
            for j, k in partition.cells:
                cell = partition.cell_family(example.family, j, k)
                gram = gram_analysis(cell, 2, 1, j, k)
                assert gram.rank_n >= gram.m - 1
                assert gram.rank_lower_bound_holds


def test_12_fractional_cell_bounds():
    with criterion(12, "residue cells of halving families obey their bounds", 300.0):
        ctx = field(2)
        fractions = fractions_from_strings(["1/2"])
        rng = random.Random(1204)

        found = []
        for dim_filter in (None, (1, 2), (2,), (2, 3), (2, 4)):
            limits = SearchLimits(dim_filter=dim_filter)
            result = max_family(build_graph(ctx, 4, fractions, limits), limits)
            assert result.exhausted
            found.append(result.family)
        assert max(len(f) for f in found) == 8

        families = list(found)
        for base in found:
            for _ in range(4):
                keep = [m for m in base.members if rng.random() < 0.6]
                if keep:
                    families.append(Family(ctx, 4, tuple(keep)))

        for fam in families:
            assert check_fractional(fam, fractions)
            for k in (1, 2):
                profile, report = fractional_cell_bound(4, 2, fractions, 3, k)
                assert profile.K == (k,)
                cell = [d for d in fam.dims if d % 3 in profile.K]
                assert len(cell) <= report.bound


def test_13_fractional_dominance_sweep():
    with criterion(13, "no exhausted fractional search beats its size bounds", 300.0):
        pool = [(a, b) for b in range(2, 6) for a in range(1, b) if math.gcd(a, b) == 1]
        sets = [FractionSet(c) for r in (1, 2, 3) for c in itertools.combinations(pool, r)]
        assert len(sets) == 129
        for q, n in ((2, 2), (2, 3), (2, 4), (3, 3), (4, 3)):
            ctx = field(q)
            for fractions in sets:
                result = max_family(build_graph(ctx, n, fractions))
                assert result.exhausted
                assert check_fractional(result.family, fractions)
                assert result.size <= bound_frac_general(n, q, fractions).bound, fractions
                if len(fractions) == 1:
                    (a, b), = fractions
                    if is_prime(b):
                        assert result.size <= bound_singleton(n, q, a, b).bound, fractions
