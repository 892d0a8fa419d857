import pytest

from equicompress.compress import compress
from equicompress.errors import BruteForceBoundError, InputMismatchError
from equicompress.families import (
    cycle_complex,
    cycle_rotation_action,
    hexagon_antipodal_action,
    regular_fixtures,
)
from equicompress.actions import GroupAction
from equicompress.reconstruct import reconstruct, recovered_action
from equicompress.verify import (
    PROPERTIES,
    find_equivariant_isomorphism,
    verify_quotient_identity,
    verify_roundtrip,
)


def roundtrip(action, **kwargs):
    triple, certificate = compress(action, **kwargs)
    rc = reconstruct(triple)
    return triple, certificate, rc


def test_report_covers_all_properties():
    action = hexagon_antipodal_action()
    _, certificate, rc = roundtrip(action)
    report = verify_roundtrip(action, certificate, rc)
    assert report.passed
    assert set(report.properties) == set(PROPERTIES)
    assert all(ok for ok, _ in report.properties.values())
    doc = report.to_doc()
    assert doc["passed"] is True


def test_all_fixtures_verify():
    for name, action in regular_fixtures().items():
        _, certificate, rc = roundtrip(action)
        report = verify_roundtrip(action, certificate, rc)
        assert report.passed, (name, report.to_doc())


def test_mismatched_inputs_rejected():
    a = hexagon_antipodal_action()
    b = cycle_rotation_action(3)
    _, cert_a, rc_a = roundtrip(a)
    _, cert_b, rc_b = roundtrip(b)
    with pytest.raises(InputMismatchError):
        verify_roundtrip(a, cert_a, rc_b)
    with pytest.raises(InputMismatchError):
        verify_roundtrip(a, cert_b, rc_a)


def test_tampered_certificate_fails():
    action = hexagon_antipodal_action()
    _, certificate, rc = roundtrip(action)
    # swap two lifts within the same dimension: fibers no longer line up
    v0, v1 = certificate.lifts[0], certificate.lifts[1]
    certificate.lifts[0], certificate.lifts[1] = v1, v0
    report = verify_roundtrip(action, certificate, rc)
    assert not report.passed
    failed = [name for name, (ok, _) in report.properties.items() if not ok]
    assert failed
    for name in failed:
        assert report.properties[name][1] is not None


def test_quotient_identity():
    for name in ("trivial-triangle", "hexagon-antipodal", "cycle-3", "dihedral-4"):
        action = regular_fixtures()[name]
        triple, _, rc = roundtrip(action)
        assert verify_quotient_identity(rc, triple.quotient), name


def test_isomorphism_between_lift_policies():
    for name in ("hexagon-antipodal", "cycle-4", "dihedral-3"):
        action = regular_fixtures()[name]
        _, _, rc_min = roundtrip(action)
        _, _, rc_max = roundtrip(action, lift_policy="lex-max")
        a, b = recovered_action(rc_min), recovered_action(rc_max)
        vmap = find_equivariant_isomorphism(a, b)
        assert vmap is not None, name
        # the witness really is a simplicial bijection commuting with G
        assert sorted(vmap) == list(range(a.complex.vertex_count))
        for s in a.complex.simplices:
            assert tuple(sorted(vmap[v] for v in s)) in b.complex.index
        for g in range(a.group.order):
            for v in range(a.complex.vertex_count):
                assert vmap[a.act_on_simplex(g, v)] == b.act_on_simplex(g, vmap[v])


def test_isomorphism_rejects_different_shapes():
    a = hexagon_antipodal_action()
    b = GroupAction.from_generator_perms(
        [[4, 5, 6, 7, 0, 1, 2, 3]], cycle_complex(8)
    )
    # same group structure but different complexes
    assert find_equivariant_isomorphism(a, a) is not None
    assert find_equivariant_isomorphism(a, b) is None


def test_isomorphism_rejects_incompatible_action():
    # same complex, same group, different actions: antipodal vs reflection
    antipodal = hexagon_antipodal_action()
    reflection = GroupAction.from_generator_perms(
        [[0, 5, 4, 3, 2, 1]], cycle_complex(6)
    )
    assert find_equivariant_isomorphism(antipodal, reflection) is None


def test_brute_force_bound_is_enforced():
    action = cycle_rotation_action(12)  # 48-cycle: 96 simplices
    with pytest.raises(BruteForceBoundError):
        find_equivariant_isomorphism(action, action, bound=50)
