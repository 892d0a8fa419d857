import pytest

from equicompress.bench import counted
from equicompress.cog import validate_against_action, validate_triple
from equicompress.compress import LIFT_POLICIES, compress, compression_ratio
from equicompress.errors import RegularityViolationError
from equicompress.families import regular_fixtures, twelve_cycle_shift_action


def test_rejects_irregular_action():
    with pytest.raises(RegularityViolationError):
        compress(twelve_cycle_shift_action())


def test_rejects_unknown_policy():
    with pytest.raises(ValueError):
        compress(regular_fixtures()["cycle-2"], lift_policy="random")


def test_orbit_stabilizer_accounting():
    for name, action in regular_fixtures().items():
        triple, certificate = compress(action)
        k = action.group.order
        total = sum(k // len(s) for s in triple.stabilizers)
        assert total == len(action.complex), name
        for y in range(len(triple.quotient)):
            fiber = [x for x, cls in enumerate(certificate.orbit_map) if cls == y]
            assert len(fiber) == k // len(triple.stabilizers[y]), name


def test_lex_min_lift_is_first_fiber_member():
    action = regular_fixtures()["cycle-4"]
    triple, certificate = compress(action)
    for y, lift in enumerate(certificate.lifts):
        fiber = [x for x, cls in enumerate(certificate.orbit_map) if cls == y]
        assert lift == fiber[0]


def test_lex_max_lift_is_last_fiber_member():
    action = regular_fixtures()["cycle-4"]
    _, certificate = compress(action, lift_policy="lex-max")
    for y, lift in enumerate(certificate.lifts):
        fiber = [x for x, cls in enumerate(certificate.orbit_map) if cls == y]
        assert lift == fiber[-1]


def test_all_policies_produce_valid_triples():
    for name in ("hexagon-antipodal", "cycle-3", "dihedral-3", "c3-triangle-sd2"):
        action = regular_fixtures()[name]
        for policy in LIFT_POLICIES:
            triple, certificate = compress(action, lift_policy=policy)
            assert validate_triple(triple).valid, (name, policy)
            assert validate_against_action(triple, certificate, action).valid, (
                name,
                policy,
            )


def test_equivariant_bfs_prefers_identity_transfers():
    action = regular_fixtures()["cycle-6"]
    t_min, _ = compress(action, lift_policy="lex-min")
    t_bfs, _ = compress(action, lift_policy="equivariant-bfs")
    ident = lambda t: sum(1 for g in t.transfers.values() if g == 0)
    assert ident(t_bfs) >= ident(t_min)


def test_trans_call_budget():
    # one transporter search per facet of each orbit representative, so at
    # most n+1 per representative; vertices have no facets
    for name, action in regular_fixtures().items():
        (triple, _), counts = counted(action, lambda: compress(action))
        dims = [triple.quotient.simplex_dim(y) for y in range(len(triple.quotient))]
        assert counts["trans"] == sum(d + 1 for d in dims if d >= 1), name


def test_compression_ratio():
    action = regular_fixtures()["cycle-6"]
    triple, _ = compress(action)
    assert len(action.complex) == 48
    assert len(triple.quotient) == 8
    assert compression_ratio(action, triple) == 6.0


def test_trivial_action_ratio_is_one():
    action = regular_fixtures()["trivial-triangle"]
    triple, _ = compress(action)
    assert compression_ratio(action, triple) == 1.0
