"""Rank certificates: the f/g evaluation functions and their matrices mod p."""

import collections
import functools
import itertools
import random

import pytest

from qlattice import (
    VARIANTS,
    CertificateContext,
    CertificateMatrix,
    ContainmentVector,
    DomainError,
    Family,
    FractionSet,
    Lattice,
    ModularProfile,
    ResourceLimitError,
    SubspaceIndex,
    certificate_context,
    check_modular,
    enumerate_subspaces,
    eval_f,
    eval_g_i,
    eval_g_xy,
    field,
    gen_example_uniform,
    independence_certificate,
    lattice,
    meet_dim,
    product_reduce,
    qbinom,
    rank_mod_p,
    budget,
    build_graph,
    shared_line_counts,
    span_check,
    subspace_at,
    union_space,
)
import qlattice.certificates as certificates_module
from qlattice.certificates import _Lanes


@functools.lru_cache(maxsize=None)
def _points(cctx):
    """The evaluation points by the reference route: each contains_mask row cut to S bits.

    S, the subspaces of dimension <= s, is counted here with qbinom, so the
    oracle reads nothing the context derives.
    """
    lat = lattice(cctx.ctx, cctx.n)
    low = (1 << sum(qbinom(cctx.n, t, cctx.q) for t in range(cctx.s + 1))) - 1
    return tuple(
        ContainmentVector(cctx.ctx, cctx.n, cctx.s, mask & low) for mask in lat.contains_mask
    )


def _reduce_mod_p(basis, row, p):
    """List oracle: residual of row mod p after elimination by an _echelon_mod_p basis."""
    r = [v % p for v in row]
    for pc, b in basis:
        f = r[pc]
        if f:
            r = [(a - f * bb) % p for a, bb in zip(r, b)]
    return r


def _echelon_mod_p(rows, p):
    """List oracle: echelon basis [(pivot_col, unit_row), ...] of the row span."""
    basis = []
    for row in rows:
        r = _reduce_mod_p(basis, row, p)
        pivot = next((c for c, v in enumerate(r) if v), None)
        if pivot is not None:
            inv = pow(r[pivot], -1, p)
            basis.append((pivot, [v * inv % p for v in r]))
    return basis


@pytest.fixture(scope="module")
def tight():
    """The seven planes of GF(2)^3 with their profile context."""
    F2 = field(2)
    prof = ModularProfile(3, (2,), (1,))
    cctx = certificate_context(F2, 3, prof)
    fam = Family(F2, 3, tuple(enumerate_subspaces(F2, 3, 2)))
    return cctx, fam


class TestContext:
    def test_derived_prime_and_s(self, tight):
        cctx, _ = tight
        assert cctx.p == 7
        assert cctx.S == 8 == qbinom(3, 0, 2) + qbinom(3, 1, 2)
        assert len(_points(cctx)) == 16  # every subspace is an evaluation point
        assert cctx.q == 2 and cctx.s == 1 and cctx.r == 1

    def test_explicit_prime_validated(self):
        F2 = field(2)
        prof = ModularProfile(3, (2,), (1,))
        ok = certificate_context(F2, 3, prof, p=7)
        assert ok.p == 7
        with pytest.raises(DomainError):
            certificate_context(F2, 3, prof, p=5)  # ord_5(2) = 4, not 3
        with pytest.raises(DomainError):
            certificate_context(F2, 3, prof, p=6)

    def test_fields_are_the_setting_alone(self, tight):
        cctx, _ = tight
        assert CertificateContext._fields == ("ctx", "n", "profile", "p")
        assert cctx == CertificateContext(field(2), 3, cctx.profile, 7)

    def test_context_builds_nothing_per_point(self, monkeypatch):
        # the lattice is built (and its budget checked) at creation; no point
        # record, label or containment table is made there
        F2 = field(2)
        lattice(F2, 4)

        def refuse(*args):
            raise AssertionError("built at context creation")

        monkeypatch.setattr(Lattice, "contains_mask", property(refuse))
        monkeypatch.setattr(Lattice, "index_at", refuse)
        monkeypatch.setattr(ContainmentVector, "_validate", refuse)
        monkeypatch.setattr(certificates_module, "compatible_rows", refuse)
        cctx = certificate_context(F2, 4, ModularProfile(5, (1,), (0, 2, 3)))
        assert vars(cctx).keys() == {"ctx", "n", "profile", "p"}  # nothing cached yet
        with pytest.raises(ResourceLimitError):
            with budget(lattice=10):
                certificate_context(F2, 4, cctx.profile)

    def test_point_labels_cover_lattice(self, tight):
        cctx, _ = tight
        assert len(cctx.point_labels) == 16
        assert cctx.point_labels[0].dim == 0
        assert cctx.point_labels[-1].dim == 3


class TestEvalF:
    def test_zero_subspace_always_inside(self, tight):
        cctx, _ = tight
        assert all(eval_f(0, 1, v) == 1 for v in _points(cctx))

    def test_self_containment(self, tight):
        cctx, _ = tight
        lab = cctx.point_labels
        for w, v in enumerate(_points(cctx)):
            x, y = lab[w].dim, lab[w].pos
            if x <= cctx.s:
                assert eval_f(x, y, v) == 1

    def test_dimension_monotonicity(self):
        F2 = field(2)
        prof = ModularProfile(4, (2,), (0, 1))
        cctx = certificate_context(F2, 3, prof)
        line_vec = _points(cctx)[1]
        for y in range(1, qbinom(3, 2, 2) + 1):
            assert eval_f(2, y, line_vec) == 0

    def test_out_of_range(self, tight):
        cctx, _ = tight
        with pytest.raises(DomainError):
            eval_f(2, 1, _points(cctx)[0])  # s_cap is 1
        with pytest.raises(DomainError):
            eval_f(1, 0, _points(cctx)[0])


class TestEvalGxy:
    def test_vanishes_exactly_on_profile_dims(self, tight):
        # zero on vectors of subspaces with dim in K mod b, nonzero elsewhere
        cctx, _ = tight
        lat = lattice(field(2), 3)
        for w, sub in enumerate(lat.subspaces):
            val = eval_g_xy(cctx, 0, 1, _points(cctx)[w])
            assert (val == 0) == (sub.dim % 3 == 2), sub.dim

    def test_zero_f_forces_zero_g(self):
        F2 = field(2)
        prof = ModularProfile(4, (2,), (0, 1))
        cctx = certificate_context(F2, 3, prof)
        line_vec = _points(cctx)[1]
        for y in range(1, 8):
            if eval_f(1, y, line_vec) == 0:
                assert eval_g_xy(cctx, 1, y, line_vec) == 0

    def test_x_beyond_grid_rejected(self, tight):
        cctx, _ = tight
        with pytest.raises(DomainError):
            eval_g_xy(cctx, 1, 1, _points(cctx)[0])  # s - r = 0


class TestEvalGi:
    def test_diagonal_pattern(self, tight):
        # g^i kills every other member and survives on its own
        cctx, fam = tight
        lat = lattice(field(2), 3)
        vecs = [_points(cctx)[lat.global_index(m)] for m in fam.members]
        for i in range(len(fam.members)):
            for j in range(len(fam.members)):
                val = eval_g_i(cctx, i, fam, vecs[j])
                assert (val != 0) == (i == j), (i, j)

    def test_empty_l_gives_unit(self):
        F2 = field(2)
        prof = ModularProfile(3, (2,), ())
        cctx = certificate_context(F2, 3, prof)
        member = next(iter(enumerate_subspaces(F2, 3, 2)))
        fam = Family(F2, 3, (member,))
        lat = lattice(F2, 3)
        v = _points(cctx)[lat.global_index(member)]
        assert eval_g_i(cctx, 0, fam, v) == 1


class TestProductReduce:
    def test_contained_line_keeps_index(self):
        F2 = field(2)
        assert product_reduce(1, 1, 1, F2, 3).dim == 1

    def test_union_bumps_dimension(self):
        F2 = field(2)
        idx = product_reduce(1, 1, 2, F2, 3)
        assert idx.dim == 2

    def test_pointwise_identity_exhaustive(self):
        # f^{x,y} * f^{1,z} = f^{x',w} on every subspace of GF(2)^4, x <= 2
        from qlattice import containment_vector

        F2 = field(2)
        n = 4
        lat = lattice(F2, n)
        cap = 3  # x' can reach 3
        vecs = [containment_vector(t, cap) for t in lat.subspaces]
        xy_pairs = [(x, y) for x in range(3) for y in range(1, qbinom(n, x, 2) + 1)]
        z_range = range(1, qbinom(n, 1, 2) + 1)
        checked = 0
        for (x, y), z in itertools.product(xy_pairs, z_range):
            idx = product_reduce(x, y, z, F2, n)
            assert idx.dim in (x, x + 1)
            for v in vecs:
                assert v.get(x, y) * v.get(1, z) == v.get(idx.dim, idx.pos)
            checked += 1
        assert checked == (1 + 15 + 35) * 15

    def test_matches_union_space(self):
        F2 = field(2)
        a = subspace_at(F2, 3, SubspaceIndex(1, 1))
        b = subspace_at(F2, 3, SubspaceIndex(1, 2))
        idx = product_reduce(1, 1, 2, F2, 3)
        assert subspace_at(F2, 3, idx) == union_space(a, b)


class TestIndependenceCertificate:
    def test_tight_family_swallow1(self, tight):
        cctx, fam = tight
        cert = independence_certificate(cctx, fam, "swallow1")
        assert len(cert.rows) == 8
        assert cert.rows[:7] == tuple(("g_i", i) for i in range(7))
        assert cert.rows[7] == ("g_xy", 0, 1)
        assert cert.rank == 8
        assert cert.verdict == "independent"
        assert cert.p == 7

    def test_all_variants_on_tight_family(self, tight):
        cctx, fam = tight
        expected_rows = {"lemma41": 1, "swallow1": 8, "lemma52": 1, "swallow2": 8}
        for variant in VARIANTS:
            cert = independence_certificate(cctx, fam, variant)
            assert len(cert.rows) == expected_rows[variant]
            assert cert.verdict == "independent"

    def test_empty_family_lemma41(self, tight):
        cctx, _ = tight
        cert = independence_certificate(cctx, Family(field(2), 3, ()), "lemma41")
        assert len(cert.rows) == 1
        assert cert.verdict == "independent"

    def test_single_member_adds_one_row(self, tight):
        cctx, fam = tight
        base = independence_certificate(cctx, Family(field(2), 3, ()), "lemma41")
        single = Family(field(2), 3, (fam.members[0],))
        cert = independence_certificate(cctx, single, "swallow1")
        assert len(cert.rows) == len(base.rows) + 1
        assert cert.rank == len(cert.rows)

    def test_lemma52_filters_grid_rows(self):
        # b=5, K={1}, L={0,2,3} on GF(2)^4: x runs over {0,1,2} and the
        # variant drops x = 1
        F2 = field(2)
        prof = ModularProfile(5, (1,), (0, 2, 3))
        cctx = certificate_context(F2, 4, prof)
        empty = Family(F2, 4, ())
        c41 = independence_certificate(cctx, empty, "lemma41")
        c52 = independence_certificate(cctx, empty, "lemma52")
        assert cctx.p == 31
        assert len(c41.rows) == 51 and c41.rank == 51
        assert len(c52.rows) == 36 and c52.rank == 36
        assert sorted({r[1] for r in c41.rows}) == [0, 1, 2]
        assert sorted({r[1] for r in c52.rows}) == [0, 2]
        assert c41.verdict == c52.verdict == "independent"

    def test_profile_violation_rejected(self, tight):
        cctx, _ = tight
        lines = Family(field(2), 3, tuple(enumerate_subspaces(field(2), 3, 1)))
        with pytest.raises(DomainError):
            independence_certificate(cctx, lines, "lemma41")

    def test_unknown_variant_rejected(self, tight):
        cctx, fam = tight
        with pytest.raises(DomainError):
            independence_certificate(cctx, fam, "lemma99")

    def test_ambient_mismatch_rejected(self, tight):
        cctx, _ = tight
        other = Family(field(2), 4, ())
        with pytest.raises(DomainError):
            independence_certificate(cctx, other, "lemma41")

    def test_counting_corollary(self, tight):
        # independent swallow1 rows fit inside the evaluation space, which
        # caps the family size by S minus the grid-row count
        cctx, fam = tight
        cert = independence_certificate(cctx, fam, "swallow1")
        assert cert.verdict == "independent"
        grid_rows = sum(1 for r in cert.rows if r[0] == "g_xy")
        g_i_rows = sum(1 for r in cert.rows if r[0] == "g_i")
        assert g_i_rows <= cctx.S - grid_rows

    def test_gf3_grid_case(self):
        # all 2-dim subspaces of GF(3)^3 under the same residue pattern
        F3 = field(3)
        prof = ModularProfile(3, (2,), (1,))
        cctx = certificate_context(F3, 3, prof)
        assert cctx.p == 13
        fam = Family(F3, 3, tuple(enumerate_subspaces(F3, 3, 2)))
        cert = independence_certificate(cctx, fam, "swallow1")
        assert len(cert.rows) == 14
        assert cert.verdict == "independent"

    def test_json_export_shape(self, tight):
        cctx, fam = tight
        d = independence_certificate(cctx, fam, "swallow1").to_json_dict()
        assert sorted(d) == ["p", "points", "rank", "rows", "verdict"]
        assert d["rows"][0] == ["g_i", 0]
        assert d["points"][0] == [0, 1]
        assert d["rank"] == 8
        assert d["verdict"] == "independent"
        assert d["p"] == 7


def _uniform_2_1_3():
    ex = gen_example_uniform(2, 1, 3)
    return certificate_context(ex.family.ctx, ex.family.n, ex.profile), ex.family


def _spec_row(cctx, fam, label):
    """One certificate row evaluated point by point from the eval_* functions."""
    if label[0] == "g_i":
        return [eval_g_i(cctx, label[1], fam, v) for v in _points(cctx)]
    return [eval_g_xy(cctx, label[1], label[2], v) for v in _points(cctx)]


class TestMaskRowsMatchSpec:
    """Rows read from contains_mask bits equal the per-point eval_* values."""

    @pytest.fixture(params=["tight", "uniform_2_1_3"])
    def example(self, request, tight):
        return tight if request.param == "tight" else _uniform_2_1_3()

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_certificate_entries(self, example, variant):
        cctx, fam = example
        cert = independence_certificate(cctx, fam, variant)
        spec = tuple(tuple(v % cctx.p for v in _spec_row(cctx, fam, label)) for label in cert.rows)
        assert cert.entries == spec

    def test_span_flags(self, example):
        cctx, fam = example
        p = cctx.p
        f_rows = [
            [eval_f(x, y, v) for v in _points(cctx)]
            for x in range(cctx.s + 1)
            for y in range(1, qbinom(cctx.n, x, cctx.q) + 1)
        ]
        assert len(f_rows) == cctx.S
        basis = _echelon_mod_p(f_rows, p)
        samples = [("g_xy", x, y) for x in range(cctx.s - cctx.r + 1)
                   for y in range(1, qbinom(cctx.n, x, cctx.q) + 1)]
        samples += [("g_i", i) for i in range(len(fam))]
        expected = tuple(
            not any(_reduce_mod_p(basis, _spec_row(cctx, fam, tag), p)) for tag in samples
        )
        assert span_check(cctx, fam, samples).solvable == expected


def _transposed_oracle(cctx):
    """Column u of _points: lane w is bit u of point w's mask, for u below S."""
    points = _points(cctx)
    return tuple(cctx._lanes.pack([v.mask >> u & 1 for v in points]) for u in range(cctx.S))


class TestColumns:
    """The f columns, rows of compatible_rows under the transposed containment rule."""

    # b = 7 has a prime of order 7 for q = 2, 3 and 4; L of size 6 puts every
    # subspace of these ambients among the f rows, L of size 2 cuts them at s = 2
    @pytest.mark.parametrize("q, n", [(2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 4),
                                      (4, 3)])
    @pytest.mark.parametrize("L", [(0, 1, 2, 3, 4, 5), (0, 1)])
    def test_columns_transpose_the_points(self, q, n, L):
        cctx = certificate_context(field(q), n, ModularProfile(7, (6,), L))
        assert cctx.S == sum(qbinom(n, t, q) for t in range(len(L) + 1))
        assert cctx._columns == _transposed_oracle(cctx)

    def test_wide_prime_columns(self):
        p = 2 ** 61 - 1
        cctx = certificate_context(field(2), 4, ModularProfile(61, (60,), (0, 1, 2)), p=p)
        assert cctx._lanes.width == 31
        assert cctx._columns == _transposed_oracle(cctx)

    def test_certificates_read_no_contains_mask(self, monkeypatch):
        ex = gen_example_uniform(2, 1, 3)
        ctx, n, family = ex.family.ctx, ex.family.n, ex.family
        lattice(ctx, n)

        def refuse(lat):
            raise AssertionError("contains_mask read")

        samples = [("g_xy", 0, 1), ("g_i", 0), ("g_i", 3)]
        monkeypatch.setattr(Lattice, "contains_mask", property(refuse))
        cctx = certificate_context(ctx, n, ex.profile)
        certs = [independence_certificate(cctx, family, variant) for variant in VARIANTS]
        span = span_check(cctx, family, samples)
        monkeypatch.undo()
        for cert in certs:
            assert cert.entries == tuple(tuple(v % cctx.p for v in _spec_row(cctx, family, label))
                                         for label in cert.rows)
        assert span.all_solvable


class TestCertificateMatrix:
    def test_dependent_rows_are_inconclusive(self):
        rows = (("g_i", 0), ("g_i", 1))
        points = ((0, 1), (1, 1), (1, 2))
        entries = ((1, 2, 3), (2, 4, 6))  # second row is twice the first
        m = CertificateMatrix.from_entries(rows, points, entries, 7)
        assert m.rank == 1
        assert m.verdict == "inconclusive"

    def test_verdict_consistency_enforced(self):
        with pytest.raises(DomainError):
            CertificateMatrix(
                rows=(("g_i", 0),),
                points=((0, 1),),
                entries=((1,),),
                rank=1,
                verdict="inconclusive",
                p=7,
            )
        with pytest.raises(DomainError):
            CertificateMatrix(
                rows=(("g_i", 0),),
                points=((0, 1),),
                entries=((0,),),
                rank=2,
                verdict="independent",
                p=7,
            )


class TestSpanCheck:
    def test_g_functions_lie_in_f_span(self, tight):
        cctx, fam = tight
        samples = [("g_xy", 0, 1)] + [("g_i", i) for i in range(7)]
        rep = span_check(cctx, fam, samples)
        assert rep.samples == tuple(tuple(s) for s in samples)
        assert rep.all_solvable
        assert all(rep.solvable)

    def test_rows_outside_the_span_are_flagged(self, tight):
        # points cut to the zero subspace leave one f row, all ones, whose
        # span holds only the rows that are constant over the points
        cctx, fam = tight
        cut = certificate_context(cctx.ctx, cctx.n, cctx.profile, cctx.p)
        vars(cut)["S"] = 1  # before its first read
        samples = [("g_xy", 0, 1)] + [("g_i", i) for i in range(len(fam))]
        want = tuple(len(set(_spec_row(cctx, fam, tag))) == 1 for tag in samples)
        assert span_check(cut, fam, samples).solvable == want
        assert not any(want)

    @pytest.mark.parametrize("kind", [(2, 2, 2), (1, 3, 2), (2, 2, 3)])
    def test_grid_index_is_the_lattice_position(self, kind):
        # a g_xy sample reads the grid row of (x, y)'s lattice position
        ex = gen_example_uniform(*kind)
        ctx, n = ex.family.ctx, ex.family.n
        cctx, lat = certificate_context(ctx, n, ex.profile), lattice(ctx, n)
        for x in range(cctx.s - cctx.r + 1):
            for y in range(1, qbinom(n, x, ctx.q) + 1):
                want = lat.global_index(subspace_at(ctx, n, SubspaceIndex(x, y)))
                assert certificates_module._grid_index(cctx, x, y) == want, (x, y)

    def test_sample_refusals(self, tight):
        cctx, fam = tight
        # s - r = 4 on GF(2)^2: the grid reaches past n, where blocks are empty
        wide = certificate_context(field(2), 2, ModularProfile(7, (6,), (0, 1, 2, 3, 4)))
        cases = [
            (cctx, ("g_xy", 1, 1), "x = 1 outside [0, 0]"),
            (cctx, ("g_xy", 0, 2), "position 2 outside [1, 1] for dimension 0"),
            (cctx, ("g_i", 7), "member index 7 outside [0, 7)"),
            (cctx, ("f", 0), "sample id ('f', 0) must be ('g_xy', x, y) or ('g_i', i)"),
            (wide, ("g_xy", 2, 2), "position 2 outside [1, 1] for dimension 2"),
            (wide, ("g_xy", 3, 1), "position 1 outside [1, 0] for dimension 3"),
            (wide, ("g_xy", 5, 1), "x = 5 outside [0, 4]"),
        ]
        for context, sample, message in cases:
            with pytest.raises(DomainError) as exc:
                span_check(context, fam if context is cctx else Family(field(2), 2, ()), [sample])
            assert str(exc.value) == message, sample
        assert span_check(wide, Family(field(2), 2, ()), [("g_xy", 2, 1)]).all_solvable

    def test_expansion_identity(self, tight):
        # g^{0,1} = sum_j f^{1,j} - [k1 1]_q f^{0,1} pointwise, r = 1
        cctx, _ = tight
        c = qbinom(2, 1, 2)
        for v in _points(cctx):
            lhs = eval_g_xy(cctx, 0, 1, v)
            rhs = (sum(eval_f(1, j, v) for j in range(1, 8)) - c * eval_f(0, 1, v)) % 7
            assert lhs == rhs


PRIMES = (2, 3, 5, 7, 13, 31, 127, 2 ** 61 - 1, 2 ** 89 - 1)


def _random_matrix(rng, p, rows, cols, rank=None):
    """Entries in [-p, 2p); with rank given, a product of rows x rank and rank x cols."""
    if rank is None:
        return [[rng.randrange(-p, 2 * p) for _ in range(cols)] for _ in range(rows)]
    left = _random_matrix(rng, p, rows, rank)
    right = _random_matrix(rng, p, rank, cols)
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]


def _packed_residual(lanes, basis, row):
    """Full residual of a packed row: lead() again past each lane that holds no pivot."""
    out = 0
    while True:
        pos, tail = lanes.lead(basis, row)
        if not tail:
            return out
        kept = (tail & lanes.lane) << (pos * lanes.bits)
        out |= kept
        row = (tail << (pos * lanes.bits)) - kept


class TestPackedKernel:
    """The lane-packed elimination against the list oracle and sympy."""

    @pytest.mark.parametrize("p", PRIMES)
    def test_rank_matches_oracle(self, p):
        rng = random.Random(p)
        shapes = [(1, 1), (3, 7), (7, 3), (12, 12), (9, 30), (30, 9)]
        cases = [_random_matrix(rng, p, r, c) for r, c in shapes]
        cases += [_random_matrix(rng, p, r, c, rank) for r, c, rank in
                  ((12, 12, 5), (20, 9, 4), (9, 25, 1), (15, 15, 14))]
        cases += [[[0] * 6] * 4, [[p, 2 * p, -p]] * 3]
        for m in cases:
            assert rank_mod_p(m, p) == len(_echelon_mod_p(m, p)), m

    @pytest.mark.parametrize("p", PRIMES)
    def test_rank_matches_sympy(self, p):
        pytest.importorskip("sympy")
        from sympy import GF
        from sympy.polys.matrices import DomainMatrix

        rng = random.Random(1000 + p)
        for r, c, rank in ((8, 8, None), (10, 6, 3), (6, 14, 5), (11, 11, 10)):
            m = _random_matrix(rng, p, r, c, rank)
            dm = DomainMatrix([[GF(p)(v) for v in row] for row in m], (r, c), GF(p))
            assert rank_mod_p(m, p) == dm.rank(), m

    @pytest.mark.parametrize("p", PRIMES)
    def test_span_residuals_match_oracle(self, p):
        rng = random.Random(2000 + p)
        m = _random_matrix(rng, p, 16, 12, 6)
        spanned, probes = m[:8], m[8:] + _random_matrix(rng, p, 4, 12)
        lanes = _Lanes(p, 12)
        basis = lanes.echelon(lanes.pack(v % p for v in row) for row in spanned)
        oracle = _echelon_mod_p(spanned, p)
        assert len(basis) == len(oracle)
        for row in probes:
            packed = lanes.pack(v % p for v in row)
            want = _reduce_mod_p(oracle, row, p)
            assert list(lanes.unpack(_packed_residual(lanes, basis, packed))) == want
            assert (not lanes.lead(basis, packed)[1]) == (not any(want))

    @pytest.mark.parametrize("p", (2, 3, 5, 7, 13, 31, 127))
    def test_lane_reduction_exhaustive(self, p):
        # every lane value below 2^a, a superset of the p(p - 1) a row
        # operation can leave, in lanes next to each other
        top = 1 << (p * (p - 1)).bit_length()
        lanes = _Lanes(p, top)
        values = list(range(top))
        assert lanes.unpack(lanes.reduce(lanes.pack(values))) == tuple(v % p for v in values)
        assert lanes.unpack(lanes.reduce(lanes.pack(values[::-1]))) == tuple(
            v % p for v in values[::-1]
        )

    @pytest.mark.parametrize("p", (2 ** 31 - 1, 2 ** 61 - 1, 2 ** 89 - 1))
    def test_lane_reduction_wide_primes(self, p):
        rng = random.Random(p)
        top = 1 << (p * (p - 1)).bit_length()
        values = [rng.randrange(top) for _ in range(200)] + [0, p, p * (p - 1), top - 1]
        lanes = _Lanes(p, len(values))
        assert lanes.unpack(lanes.pack(values)) == tuple(values)
        assert lanes.unpack(lanes.reduce(lanes.pack(values))) == tuple(v % p for v in values)

    def test_lane_widths_are_whole_bytes(self):
        widths = {p: _Lanes(p, 4).width for p in PRIMES}
        assert widths == {2: 1, 3: 1, 5: 2, 7: 2, 13: 3, 31: 3, 127: 4,
                          2 ** 61 - 1: 31, 2 ** 89 - 1: 45}

    def test_ragged_rows_rejected(self):
        with pytest.raises(DomainError):
            rank_mod_p([[1, 2], [3]], 5)

    def test_empty_matrix(self):
        assert rank_mod_p([], 5) == 0
        assert rank_mod_p([[], []], 5) == 0


def _check_against_oracle(cctx, fam, spec=True):
    for variant in VARIANTS:
        cert = independence_certificate(cctx, fam, variant)
        if spec:
            want = tuple(tuple(v % cctx.p for v in _spec_row(cctx, fam, label))
                         for label in cert.rows)
            assert cert.entries == want, variant
        rank = len(_echelon_mod_p(cert.entries, cctx.p))
        assert cert.rank == rank, variant
        assert cert.verdict == ("independent" if rank == len(cert.rows) else "inconclusive")


class TestCertificatesMatchOracle:
    """Entries, rank and verdict of every variant against spec rows and the list oracle."""

    @pytest.mark.parametrize("kind", [(2, 1, 2), (1, 2, 2), (2, 2, 2), (3, 1, 2), (1, 3, 2),
                                      (2, 1, 3)])
    def test_uniform_examples(self, kind):
        ex = gen_example_uniform(*kind)
        cctx = certificate_context(ex.family.ctx, ex.family.n, ex.profile)
        _check_against_oracle(cctx, ex.family)
        members = ex.family.members
        _check_against_oracle(cctx, Family(ex.family.ctx, ex.family.n, members[: len(members) // 3]))

    def test_large_uniform_example(self):
        ex = gen_example_uniform(2, 2, 3)
        cctx = certificate_context(ex.family.ctx, ex.family.n, ex.profile)
        _check_against_oracle(cctx, Family(ex.family.ctx, ex.family.n, ex.family.members[:20]),
                              spec=False)

    @pytest.mark.parametrize("p", (2 ** 61 - 1, 2 ** 89 - 1))
    def test_wide_prime_context(self, p):
        # 2 has order b mod the Mersenne prime 2^b - 1, so b = 61 and b = 89
        # profiles on the planes of GF(2)^3 accept p
        F2 = field(2)
        b = p.bit_length()
        cctx = certificate_context(F2, 3, ModularProfile(b, (2,), (1,)), p=p)
        fam = Family(F2, 3, tuple(enumerate_subspaces(F2, 3, 2)))
        _check_against_oracle(cctx, fam)
        assert span_check(cctx, fam, [("g_xy", 0, 1), ("g_i", 0)]).all_solvable

    def test_context_rows_built_once(self, tight, monkeypatch):
        cctx, fam = tight
        independence_certificate(cctx, fam, "lemma41")
        span_check(cctx, fam, [("g_xy", 0, 1)])
        grid, basis, block = cctx._grid_rows, cctx._f_basis, cctx._grid
        independence_certificate(cctx, fam, "swallow1")
        span_check(cctx, fam, [("g_i", 0)])
        assert cctx._grid_rows is grid and cctx._f_basis is basis and cctx._grid is block
        assert cctx == certificate_context(field(2), 3, cctx.profile)

        calls = collections.Counter()

        def counting(owner, name):
            real = getattr(owner, name)

            def counted(*args):
                calls[name] += 1
                return real(*args)
            return counted

        for name in ("echelon", "unpack", "pack"):
            monkeypatch.setattr(_Lanes, name, counting(_Lanes, name))
        monkeypatch.setattr(certificates_module, "_g_i_row",
                            counting(certificates_module, "_g_i_row"))
        # the grid-only variants take rows, entries and rank from the block
        for variant in ("lemma41", "lemma52"):
            first = independence_certificate(cctx, fam, variant)
            calls.clear()
            assert independence_certificate(cctx, fam, variant) == first
            assert not calls, variant
        # a swallow variant reads its member rows from the context's store,
        # packs none of them, and eliminates them and the block's rows once
        for variant in ("swallow1", "swallow2"):
            first = independence_certificate(cctx, fam, variant)
            calls.clear()
            assert independence_certificate(cctx, fam, variant) == first
            assert calls == {"echelon": 1}, variant
        # on a fresh context each member's row is built and packed once,
        # whatever the variant and however often it is asked for
        fresh = certificate_context(field(2), 3, cctx.profile)
        for variant in ("lemma41", "lemma52"):
            independence_certificate(fresh, fam, variant)
        span_check(fresh, fam, [("g_xy", 0, 1)])
        calls.clear()
        for variant in VARIANTS * 2:
            independence_certificate(fresh, fam, variant)
        span_check(fresh, fam, [("g_i", i) for i in range(len(fam))])
        assert calls == {"_g_i_row": len(fam), "pack": len(fam), "echelon": 4}
        lat = lattice(field(2), 3)
        assert sorted(fresh._member_rows) == sorted(lat.global_index(m) for m in fam)

    def test_shared_line_table_computed_once(self, tight):
        # one miss per (predicate, n, q), shared by the context's re-check
        # table and build_graph
        _, fam = tight
        shared_line_counts.cache_clear()
        cctx = certificate_context(field(2), 3, tight[0].profile)
        for variant in VARIANTS * 2:
            independence_certificate(cctx, fam, variant)
        assert shared_line_counts.cache_info()[:2] == (0, 1)  # (hits, misses)
        build_graph(cctx.ctx, cctx.n, cctx.profile)
        independence_certificate(certificate_context(field(2), 3, cctx.profile), fam, "lemma41")
        assert shared_line_counts.cache_info()[:2] == (2, 1)
        for fractions in (((1, 2),), [[1, 2]], ((1, 2),)):
            build_graph(cctx.ctx, cctx.n, FractionSet(fractions))
        build_graph(field(3), 3, cctx.profile)
        assert shared_line_counts.cache_info()[:2] == (4, 3)


def _variant_labels(cctx, fam, variant):
    """The row labels a variant selects, from its definition."""
    labels = [("g_i", i) for i in range(len(fam))] if variant.startswith("swallow") else []
    for x in range(cctx.s - cctx.r + 1):
        if variant in ("lemma41", "swallow1") or not cctx.profile.admits(x):
            labels += [("g_xy", x, y) for y in range(1, qbinom(cctx.n, x, cctx.q) + 1)]
    return tuple(labels)


class TestContextReuse:
    """One context serves many families and variants as a fresh one would."""

    @pytest.mark.parametrize("kind", [(2, 1, 2), (1, 2, 2), (2, 2, 2), (3, 1, 2), (1, 3, 2),
                                      (2, 1, 3)])
    def test_reused_context_matches_fresh(self, kind):
        ex = gen_example_uniform(*kind)
        family, profile = ex.family, ex.profile
        ctx, n, k = family.ctx, family.n, kind[0]
        rng = random.Random(f"reuse {kind}")
        members = list(family.members)
        stray = next(enumerate_subspaces(ctx, n, rng.choice((k - 1, k + 1))))
        bad = rng.sample(members, len(members) // 3)
        bad.insert(rng.randrange(len(bad) + 1), stray)
        families = [Family(ctx, n, tuple(rng.sample(members, len(members))))]
        families += [Family(ctx, n, tuple(rng.sample(members, rng.randint(1, len(members)))))
                     for _ in range(3)]
        violating = Family(ctx, n, tuple(bad))
        calls = [(fam, variant) for fam in families + [violating] for variant in VARIANTS]
        calls = calls * 2
        rng.shuffle(calls)

        cctx = certificate_context(ctx, n, profile)
        spec = {}
        want = check_modular(violating, profile)
        assert not want
        for fam, variant in calls:
            if fam is violating:
                with pytest.raises(DomainError) as exc:
                    independence_certificate(cctx, fam, variant)
                assert str(exc.value) == f"family violates the profile: {want.detail}"
                continue
            cert = independence_certificate(cctx, fam, variant)
            assert cert.rows == _variant_labels(cctx, fam, variant)
            fresh = certificate_context(ctx, n, profile)
            assert cert == independence_certificate(fresh, fam, variant), variant
            assert cert.rank == CertificateMatrix.from_entries(
                cert.rows, cert.points, cert.entries, cctx.p).rank
            for label, row in zip(cert.rows, cert.entries):
                key = ("g_i", fam[label[1]]) if label[0] == "g_i" else label
                if key not in spec:
                    spec[key] = tuple(v % cctx.p for v in _spec_row(cctx, fam, label))
                assert row == spec[key], (variant, label)


# the uniform examples (k, s, q) the warm verification benchmark certifies
WARM_BASES = [(2, 1, 2), (1, 2, 2), (2, 2, 2), (3, 1, 2), (1, 3, 2), (2, 1, 3), (2, 2, 3),
              (3, 2, 2)]


class TestMemberRowStore:
    """Each member's g_i row is built once per context and lattice position."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Line masks passed to _g_i_row, and _Lanes.pack calls, by the context's lanes."""
        built, packs = collections.Counter(), collections.Counter()
        real_row, real_pack = certificates_module._g_i_row, _Lanes.pack

        def row(cctx, member, points):
            built[id(cctx), member] += 1
            return real_row(cctx, member, points)

        def pack(lanes, values):
            packs[id(lanes)] += 1
            return real_pack(lanes, values)

        monkeypatch.setattr(certificates_module, "_g_i_row", row)
        monkeypatch.setattr(_Lanes, "pack", pack)
        return built, packs

    @pytest.mark.parametrize("kind", WARM_BASES)
    def test_overlapping_subfamilies_build_each_position_once(self, kind, counted):
        built, packs = counted
        ex = gen_example_uniform(*kind)
        ctx, n, profile = ex.family.ctx, ex.family.n, ex.profile
        lat = lattice(ctx, n)
        rng = random.Random(f"member rows {kind}")
        members = list(ex.family.members)
        size = min(16, len(members))
        # subfamilies drawn from a pool twice their size overlap
        pool = rng.sample(members, min(len(members), 2 * size))
        families = [Family(ctx, n, tuple(rng.sample(pool, rng.randint(1, size))))
                    for _ in range(4)]
        calls = [(fam, variant) for fam in families for variant in VARIANTS] * 2
        rng.shuffle(calls)

        cctx = certificate_context(ctx, n, profile)
        for variant in VARIANTS:  # the grid blocks and the re-check table
            independence_certificate(cctx, Family(ctx, n, ()), variant)
        seen = set()
        for fam, variant in calls:
            before = packs[id(cctx._lanes)]
            cert = independence_certificate(cctx, fam, variant)
            assert cert == independence_certificate(certificate_context(ctx, n, profile), fam,
                                                    variant), variant
            new = {m for m in fam if m not in seen} if variant.startswith("swallow") else set()
            assert packs[id(cctx._lanes)] - before == len(new), variant
            seen |= new
            store = cctx._member_rows
            for label, entries in zip(cert.rows, cert.entries):
                if label[0] == "g_i":  # the matrix shares the stored tuples
                    assert entries is store[lat.global_index(fam[label[1]])][1]
        mine = {member: count for (owner, member), count in built.items() if owner == id(cctx)}
        assert mine == {lat.lines[lat.global_index(m)]: 1 for m in seen}
        store = cctx._member_rows
        assert sorted(store) == sorted(lat.global_index(m) for m in seen)
        for g, (row, entries) in store.items():
            single = Family(ctx, n, (lat.subspaces[g],))
            spec = tuple(v % cctx.p for v in _spec_row(cctx, single, ("g_i", 0)))
            assert entries == spec and cctx._lanes.unpack(row) == spec

    @pytest.mark.parametrize("q, n", [(2, 4), (3, 3)])
    def test_violating_family_leaves_a_warm_store_unchanged(self, q, n, counted):
        built, packs = counted
        ctx, profile, star, stray, other = _star_case(q, n)
        half = len(star) // 2
        cctx = certificate_context(ctx, n, profile)
        for variant in VARIANTS:
            independence_certificate(cctx, Family(ctx, n, tuple(star[:half])), variant)
        snapshot = dict(cctx._member_rows)
        assert len(snapshot) == half
        built.clear()
        packs.clear()
        # a failing pair or a member the profile does not admit, next to
        # stored members and to members not yet stored
        for members in (star + [stray], [stray] + star, star[:half] + [other],
                        star[half:] + [other], [other] + star[half:]):
            spoiled = Family(ctx, n, tuple(members))
            want = check_modular(spoiled, profile)
            assert not want
            for variant in VARIANTS:
                with pytest.raises(DomainError) as exc:
                    independence_certificate(cctx, spoiled, variant)
                assert str(exc.value) == f"family violates the profile: {want.detail}"
                store = cctx._member_rows
                assert store.keys() == snapshot.keys()
                assert all(store[g] is snapshot[g] for g in snapshot)
        assert not built and not packs

    def test_span_check_g_i_samples_read_the_store(self, tight, counted):
        built, _ = counted
        cctx, fam = tight
        for context, family in ((certificate_context(cctx.ctx, cctx.n, cctx.profile), fam),
                                _uniform_2_1_3()):
            # the same context cut to the zero subspace: no g_i lies in the span
            cut = certificate_context(context.ctx, context.n, context.profile, context.p)
            vars(cut)["S"] = 1  # before its first read
            samples = [("g_i", i) for i in range(len(family))]
            for c in (context, cut):
                # each sample's row built and packed per call, the route before the store
                lanes, lat = c._lanes, lattice(c.ctx, c.n)
                lines = [lat.lines[lat.global_index(m)] for m in family]
                before = tuple(not lanes.lead(c._f_basis, lanes.pack(
                    certificates_module._g_i_row(c, member, lat.lines)))[1] for member in lines)
                built.clear()
                assert span_check(c, family, samples).solvable == before
                assert sorted(built.values()) == [1] * len(set(lines))
                # warm: the samples and a swallow certificate build nothing more
                built.clear()
                assert span_check(c, family, samples).solvable == before
                if c is context:
                    independence_certificate(c, family, "swallow1")
                assert not built
            assert any(span_check(context, family, samples).solvable)
            assert not any(span_check(cut, family, samples).solvable)


def _revalidation(cctx, family):
    """The verdict independence_certificate reaches on family, as check_modular words it."""
    try:
        independence_certificate(cctx, family, "lemma41")
    except DomainError as exc:
        return str(exc)
    return "pass"


def _expected(family, profile):
    """_revalidation's answer, from check_modular."""
    want = check_modular(family, profile)
    return "pass" if want else f"family violates the profile: {want.detail}"


def _greedy_family(ctx, n, profile, rng):
    """A maximal family that passes check_modular, from the admitted subspaces in random order.

    A candidate joins when its meet_dim with every member so far lands in
    L mod b, so the family is built without the code under test. A first
    pass takes only candidates of a dimension not yet present, so the
    family mixes dimensions wherever two of them can meet in L.
    """
    lat = lattice(ctx, n)
    candidates = [s for s in lat.subspaces if profile.admits(s.dim)]
    rng.shuffle(candidates)
    members = []
    for new_dims_only in (True, False):
        for cand in candidates:
            if cand in members or (new_dims_only and cand.dim in {m.dim for m in members}):
                continue
            if all(profile.meets(meet_dim(cand, m), cand.dim, m.dim) for m in members):
                members.append(cand)
    return members


def _star_case(q, n):
    """(field, profile, passing members, stray, non-admitted member) on GF(q)^n.

    For n >= 4: planes through one line under b = 4, K = {2}, L = {1}; the
    stray plane misses the line and meets some star plane in dimension 0.
    For n = 3: the lines under b = 4, K = {1, 3}, L = {0}; the stray is the
    whole space, which meets every line in dimension 1.
    """
    ctx = field(q)
    lat = lattice(ctx, n)
    if n == 3:
        profile = ModularProfile(4, (1, 3), (0,))
        star = list(enumerate_subspaces(ctx, n, 1))
        stray = lat.subspaces[-1]
        other = lat.subspaces[lat.offsets[2]]
    else:
        profile = ModularProfile(4, (2,), (1,))
        axis = lat.subspaces[lat.offsets[1]]
        planes = list(enumerate_subspaces(ctx, n, 2))
        star = [s for s in planes if meet_dim(s, axis) == 1]
        stray = next(s for s in planes if meet_dim(s, axis) == 0)
        other = lat.subspaces[lat.offsets[1] + 1]
    return ctx, profile, star, stray, other


AMBIENTS = [(2, 4), (2, 5), (3, 3), (3, 4), (4, 3)]


class TestRevalidation:
    """The certificate's re-check from its context's table equals check_modular exactly."""

    @pytest.mark.parametrize("kind", [(2, 1, 2), (1, 2, 2), (2, 2, 2), (3, 1, 2), (2, 1, 3),
                                      (1, 2, 3), (2, 2, 3)])
    def test_uniform_examples_and_stricter_profiles(self, kind):
        ex = gen_example_uniform(*kind)
        family, profile = ex.family, ex.profile
        rng = random.Random(str(kind))
        shuffled = Family(family.ctx, family.n, tuple(rng.sample(family.members, len(family))))
        for prof in {profile, ModularProfile(profile.b, profile.K, profile.L[1:]),
                     ModularProfile(profile.b, profile.K, profile.L[:-1])}:
            cctx = certificate_context(family.ctx, family.n, prof)
            for fam in (family, shuffled):
                assert _revalidation(cctx, fam) == _expected(fam, prof)

    @pytest.mark.parametrize("q, n", AMBIENTS)
    def test_failures_at_a_member_the_first_pair_and_a_late_pair(self, q, n):
        ctx, profile, star, stray, other = _star_case(q, n)
        cctx = certificate_context(ctx, n, profile)
        clash = [not profile.meets(meet_dim(s, stray), 0, 0) for s in star]
        bad = clash.index(True)
        ok = [s for s, c in zip(star, clash) if not c]
        rest = star[:bad] + star[bad + 1 :]
        m = len(star)
        cases = {
            "valid": (star, None),
            "valid, reversed": (star[::-1], None),
            "first pair": ([stray, star[bad]] + rest, (0, 1)),
            "first pair, partner later": ([stray] + star, (0, bad + 1)),
            "late pair": (star + [stray], (bad, m)),
            "only the last pair": (ok + [star[bad], stray], (len(ok), len(ok) + 1)),
            "member": (star + [other], (m,)),
            "member first": ([other] + star, (0,)),
            "member after a failing pair": ([stray, star[bad], other] + rest, (2,)),
        }
        for name, (members, witness) in cases.items():
            fam = Family(ctx, n, tuple(members))
            assert check_modular(fam, profile).witness == witness, name
            assert _revalidation(cctx, fam) == _expected(fam, profile), name

    @pytest.mark.parametrize("q, n, b, K, L", [
        (2, 4, 3, (1, 2), (0,)),
        (2, 5, 3, (1, 2), (0,)),
        (2, 4, 4, (1, 3), (0, 2)),
        (2, 5, 4, (1, 2), (0, 3)),
        (3, 4, 4, (1, 2), (0,)),
        (3, 3, 4, (1, 2), (0,)),
        (4, 3, 4, (1, 2), (0, 3)),
    ])
    def test_mixed_dimensions_subfamilies_and_orders(self, q, n, b, K, L):
        ctx, profile = field(q), ModularProfile(b, K, L)
        cctx = certificate_context(ctx, n, profile)
        lat = lattice(ctx, n)
        rng = random.Random(f"recheck {q} {n} {b} {K} {L}")
        for _ in range(3):
            members = _greedy_family(ctx, n, profile, rng)
            assert len({m.dim for m in members}) >= 2
            families = [members, members[::-1], rng.sample(members, len(members))]
            families += [rng.sample(members, rng.randint(0, len(members))) for _ in range(4)]
            for chosen in families[:]:
                for _ in range(3):
                    stray = rng.choice([s for s in lat.subspaces if s not in chosen])
                    spoiled = list(chosen)
                    spoiled.insert(rng.randint(0, len(spoiled)), stray)
                    families.append(spoiled)
            for chosen in families:
                fam = Family(ctx, n, tuple(chosen))
                assert _revalidation(cctx, fam) == _expected(fam, profile)

    def test_no_meet_dim_call(self, monkeypatch):
        # the re-check reads meet_dim from certificates, for a witness only
        ex = gen_example_uniform(2, 2, 2)
        cctx = certificate_context(ex.family.ctx, ex.family.n, ex.profile)
        calls = []

        def refuse(a, b):
            calls.append((a, b))
            raise AssertionError("meet_dim called")

        monkeypatch.setattr(certificates_module, "meet_dim", refuse)
        for variant in VARIANTS:
            assert independence_certificate(cctx, ex.family, variant).verdict == "independent"
        assert calls == []
        # a failing family reaches the patched name, so the check above can fail
        strict = certificate_context(cctx.ctx, cctx.n, ModularProfile(4, (2,), (1,)))
        with pytest.raises(AssertionError, match="meet_dim called"):
            independence_certificate(strict, ex.family, "lemma41")
        assert len(calls) == 1

    def test_table_built_once_per_context(self, monkeypatch):
        calls = []
        real = certificates_module.compatible_rows

        ctx, profile, star, stray, _ = _star_case(2, 4)

        def counted(*args):
            # the compatibility table's calls; the f columns take another rule
            if args[2] is shared_line_counts(profile, 4, 2):
                calls.append(args)
            return real(*args)

        monkeypatch.setattr(certificates_module, "compatible_rows", counted)
        family = Family(ctx, 4, tuple(star))
        spoiled = Family(ctx, 4, tuple(star) + (stray,))
        cctx = certificate_context(ctx, 4, profile)
        for variant in VARIANTS * 2:
            independence_certificate(cctx, family, variant)
            with pytest.raises(DomainError, match="^family violates the profile: pair"):
                independence_certificate(cctx, spoiled, variant)
        assert len(calls) == 1
        # the table covers the admitted dimension blocks, nothing else
        lat, positions, allowed = calls[0]
        assert lat is lattice(ctx, 4)
        start = 1 + qbinom(4, 1, 2)  # after the zero subspace and the lines
        assert list(positions) == list(range(start, start + qbinom(4, 2, 2)))
        assert {lat.dims[g] for g in positions} == {2}
        assert allowed is shared_line_counts(profile, 4, 2)
        independence_certificate(certificate_context(ctx, 4, profile), family, "lemma41")
        assert len(calls) == 2
