import pytest

from equicompress.actions import check_regularity, quotient
from equicompress.bench import counted
from equicompress.cog import validate_triple
from equicompress.compress import compress, compression_ratio
from equicompress.errors import RegularityViolationError
from equicompress.families import regular_fixtures, twelve_cycle_shift_action

from oracles import validate_against_action
from relabel import moved_lifts, relabelled


def test_rejects_irregular_action():
    with pytest.raises(RegularityViolationError):
        compress(twelve_cycle_shift_action())


def test_orbit_stabilizer_accounting():
    for name, action in regular_fixtures().items():
        triple = compress(action)
        _, orbit_map, _ = quotient(action)
        k = action.group.order
        total = sum(k // len(s) for s in triple.stabilizers)
        assert total == len(action.complex), name
        for y in range(len(triple.quotient)):
            fiber = [x for x, cls in enumerate(orbit_map) if cls == y]
            assert len(fiber) == k // len(triple.stabilizers[y]), name


def test_lex_min_lift_is_first_fiber_member():
    action = regular_fixtures()["cycle-4"]
    _, orbit_map, lifts = quotient(action)
    for y, lift in enumerate(lifts):
        fiber = [x for x, cls in enumerate(orbit_map) if cls == y]
        assert lift == fiber[0]


def test_all_policies_produce_valid_triples():
    # the original and its relabelled copy lift most classes to different members
    for name in ("hexagon-antipodal", "cycle-3", "dihedral-3", "c3-triangle-sd2"):
        action = regular_fixtures()[name]
        copy, to_copy = relabelled(action)
        assert moved_lifts(action, copy, to_copy) >= 1, name
        for acted in (action, copy):
            triple = compress(acted)
            assert validate_triple(triple).valid, name
            assert validate_against_action(triple, acted).valid, name


def test_trans_call_budget():
    # one transporter search per facet of each orbit representative, so at
    # most n+1 per representative; vertices have no facets
    for name, action in regular_fixtures().items():
        triple, counts = counted(action, lambda: compress(action))
        dims = [len(s) - 1 for s in triple.quotient.simplices]
        assert counts["trans"] == sum(d + 1 for d in dims if d >= 1), name


def test_compression_ratio():
    action = regular_fixtures()["cycle-6"]
    triple = compress(action)
    assert len(action.complex) == 48
    assert len(triple.quotient) == 8
    assert compression_ratio(action, triple) == 6.0


def test_trivial_action_ratio_is_one():
    action = regular_fixtures()["trivial-triangle"]
    triple = compress(action)
    assert compression_ratio(action, triple) == 1.0


def test_compress_builds_the_facets_of_the_lifts_only():
    for name, action in regular_fixtures().items():
        x = action.complex
        assert check_regularity(action).regular, name
        assert "faces_codim1" not in vars(x), name
        compress(action)
        assert "faces_codim1" not in vars(x), name
        _, _, lifts = quotient(action)
        assert x.facets_of(lifts) == [x.faces_codim1[sid] for sid in lifts], name
        everything = range(len(x) - 1, -1, -1)  # every id, a dimension at a time
        assert x.facets_of(everything) == [x.faces_codim1[sid] for sid in everything], name
