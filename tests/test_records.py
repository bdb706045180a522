"""Frozen records: construction, immutability, and value identity over the fields."""

import random

import pytest

from qlattice import (
    BoundReport,
    ContainmentVector,
    DomainError,
    FractionSet,
    LatticeFunction,
    ModularProfile,
    SearchLimits,
    bound_theorem1,
    build_graph,
    certificate_context,
    check_modular,
    containment_vector,
    fractions_from_strings,
    gen_example_bisection,
    gen_example_uniform,
    generalized_inversion_check,
    gram_analysis,
    independence_certificate,
    lattice,
    max_family,
    partition_jk,
    span_check,
    vanishing_check,
    zsigmondy_exception,
)
from qlattice.options import DEFAULT_MAX_NODES
from qlattice.records import Record


def _samples():
    """One instance of every record class, built the way the package builds it."""
    family, profile = gen_example_uniform(2, 1, 2)
    ctx, n = family.ctx, family.n
    cctx = certificate_context(ctx, n, profile)
    lat = lattice(ctx, 3)
    alpha = LatticeFunction.random(lat, 7, random.Random(5))
    graph = build_graph(ctx, 3, fractions_from_strings(["1/2"]))
    bisection = gen_example_bisection(3, 2)
    return [
        zsigmondy_exception(2, 6),
        bound_theorem1(4, 2, ModularProfile(3, (0,), (1,))),
        family[0],
        containment_vector(family[0], 2),
        family,
        profile,
        bisection.fractions,
        check_modular(family, profile),
        partition_jk(bisection.family, 2),
        gram_analysis(bisection.family, 2, 1, 1, 1),
        SearchLimits(5, (2, 1)),
        graph,
        max_family(graph),
        cctx,
        independence_certificate(cctx, family, "swallow1"),
        span_check(cctx, family, [("g_xy", 0, 1)]),
        alpha,
        generalized_inversion_check(alpha, lat.subspaces[0], lat.subspaces[-1]),
        vanishing_check(alpha, [0, 3], 2),
    ]


SAMPLES = _samples()


def test_samples_cover_every_record_class():
    assert {type(x) for x in SAMPLES} == set(Record.__subclasses__())
    assert len(SAMPLES) == 19


def _hashable(x) -> bool:
    try:
        hash(x)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("record", SAMPLES, ids=lambda x: type(x).__name__)
def test_record_is_a_frozen_value_of_its_fields(record):
    cls, names = type(record), type(record)._fields
    values = [getattr(record, name) for name in names]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    for copy in (by_position, by_keyword):
        assert copy == record and not copy != record
        assert repr(copy) == repr(record)
        if _hashable(record):
            assert hash(copy) == hash(record)
    assert record != object()

    for name in (*names, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert [getattr(record, name) for name in names] == values

    # a changed field breaks equality; an attribute that is no field does not
    for name in names:
        changed = cls(*values)
        object.__setattr__(changed, name, object())
        assert changed != record
    if hasattr(by_position, "__dict__"):
        object.__setattr__(by_position, "_not_a_field", 1)
        assert by_position == record and repr(by_position) == repr(record)
        if _hashable(record):
            assert hash(by_position) == hash(record)


def test_hash_is_the_hash_of_the_field_tuple():
    for record in SAMPLES:
        if _hashable(record):
            assert hash(record) == hash(tuple(getattr(record, f) for f in record._fields))


def test_mutable_default_is_fresh_per_record():
    a = BoundReport("theorem_main", {}, "base", 1)
    b = BoundReport("theorem_main", {}, "base", 1)
    assert a.auxiliaries == {} and a.auxiliaries is not b.auxiliaries
    a.auxiliaries["x"] = "1"
    assert b.auxiliaries == {} and BoundReport("theorem_main", {}, "base", 1).auxiliaries == {}


def test_defaults_fill_missing_fields_and_validation_runs():
    assert SearchLimits() == SearchLimits(DEFAULT_MAX_NODES, None)
    assert SearchLimits(dim_filter=[3, 1, 3]).dim_filter == (1, 3)
    with pytest.raises(DomainError, match="max_nodes must be >= 1"):
        SearchLimits(max_nodes=0)


def test_bad_arguments_raise_type_error():
    with pytest.raises(TypeError, match="missing field 'bound'"):
        BoundReport("theorem_main", {}, "base")
    with pytest.raises(TypeError, match="takes 3 fields"):
        ModularProfile(3, (0,), (1,), ())
    with pytest.raises(TypeError, match="no field 'c'"):
        ModularProfile(3, (0,), (1,), c=2)
    with pytest.raises(TypeError):
        ContainmentVector(None, 1, 0, 1, n=1)


def test_subclass_keeps_its_parents_fields():
    # a subclass with no annotations of its own is a record of its parent's
    # fields, validated by its parent's _validate
    class Half(FractionSet):
        pass

    assert Half._fields == ("fractions",)
    assert Half(((1, 2),)).fractions == ((1, 2),)
    assert Half(fractions=[[2, 3], [1, 2]]).fractions == ((1, 2), (2, 3))
    assert Half(((1, 2),)) != FractionSet(((1, 2),))
    with pytest.raises(DomainError, match="repeated"):
        Half(((1, 2), (1, 2)))

    # new annotations follow the inherited ones, as in dataclasses; a
    # redeclared field keeps its place and takes the new default
    class Tagged(SearchLimits):
        tag: str = "t"
        max_nodes: int = 5

    assert Tagged._fields == ("max_nodes", "dim_filter", "tag")
    assert Tagged() == Tagged(5, None, "t")
    assert repr(Tagged(dim_filter=[2, 1], tag="u")) == (
        "test_subclass_keeps_its_parents_fields.<locals>.Tagged"
        "(max_nodes=5, dim_filter=(1, 2), tag='u')"
    )
    with pytest.raises(TypeError, match="takes 3 fields, got 4"):
        Tagged(1, None, "t", 0)
