import numpy as np
import pytest

from opalg import (
    AutomorphismGroup,
    InnerAutomorphism,
    NumericalError,
    OpalgError,
    StarAlgebra,
    State,
    dual_norm_distance,
    evaluate_state,
    gns_construct,
    one_parameter_flow,
    pushforward_state,
    stabilizer_orbit,
    stationarity_check,
    unitary_implementer,
)
from opalg.gns import cyclic_vector_residual, intertwining_residual
from opalg.scenarios import Scenario, run_scenario
from opalg.symmetry import cyclic_vector_certificate
from oracles import generator_matrices

M2 = StarAlgebra([2])

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _auto(mat):
    return InnerAutomorphism(M2.element([mat]))


PAULI_GROUP = [_auto(np.eye(2)), _auto(SIGMA_X), _auto(SIGMA_Y), _auto(SIGMA_Z)]


def test_inner_automorphism_requires_unitary():
    with pytest.raises(OpalgError):
        _auto(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_pushforward_examples():
    f = State(M2, [np.diag([1.0, 0.0])])
    same = pushforward_state(f, PAULI_GROUP[0])
    assert dual_norm_distance(f, same) <= 1e-14
    flipped = pushforward_state(f, PAULI_GROUP[1])
    assert np.max(np.abs(flipped.densities[0] - np.diag([0.0, 1.0]))) <= 1e-14


def test_pushforward_composition_law():
    rng = np.random.default_rng(81)
    for _ in range(10):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        dens = m @ m.conj().T
        f = State(M2, [dens / np.trace(dens).real])
        rho, tau = PAULI_GROUP[1], PAULI_GROUP[2]
        once = pushforward_state(pushforward_state(f, rho), tau)
        composed = pushforward_state(f, rho.compose(tau))
        # f_(rho.tau)(a) = f(rho(tau(a))): pushing by tau then rho
        other = pushforward_state(pushforward_state(f, tau), rho)
        assert dual_norm_distance(composed, other) <= 1e-12 or \
            dual_norm_distance(composed, once) <= 1e-12


def test_stationarity_examples():
    tracial = State.tracial(M2)
    for rho in PAULI_GROUP:
        assert stationarity_check(tracial, rho)
    excited = State(M2, [np.diag([1.0, 0.0])])
    assert not stationarity_check(excited, PAULI_GROUP[1])
    phase = _auto(np.diag([1.0, np.exp(0.7j)]))
    assert stationarity_check(excited, phase)


def test_unitary_implementer_identity():
    f = State(M2, [np.diag([1.0, 0.0])])
    result = unitary_implementer(f, PAULI_GROUP[0])
    assert result.unitary is not None
    assert np.max(np.abs(result.unitary - np.eye(result.unitary.shape[0]))) <= 1e-10


def test_unitary_implementer_tracial_flip():
    f = State.tracial(M2)
    result = unitary_implementer(f, PAULI_GROUP[1])
    assert result.unitary is not None
    w = result.unitary
    assert w.shape == (4, 4)
    assert np.max(np.abs(w.conj().T @ w - np.eye(4))) <= 1e-10
    rep = gns_construct(M2, f)
    # fixes the cyclic vector and intertwines pi(rho(a)) = W pi(a) W^-1
    assert np.max(np.abs(w @ rep.cyclic_vector - rep.cyclic_vector)) <= 1e-10
    assert result.intertwining_residual <= 1e-8


def test_unitary_implementer_absent_when_not_stationary():
    f = State(M2, [np.diag([1.0, 0.0])])
    result = unitary_implementer(f, PAULI_GROUP[1])
    assert result.unitary is None
    assert result.isometry_defect > 1e-3


def test_cyclic_vector_residual_pins_the_implementer():
    # on a flat state every unitary U is stationary; the implementer's V_b and
    # its transpose are both unitary and pass the intertwining certificate,
    # but only V_b fixes the cyclic vector
    m3 = StarAlgebra([3])
    f = State.tracial(m3)
    rng = np.random.default_rng(81)
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    result = unitary_implementer(f, InnerAutomorphism(m3.element([u])))
    rep = gns_construct(m3, f)
    (theta,) = rep.factors
    v = (np.linalg.pinv(theta) @ u.conj().T @ theta).T
    assert np.max(np.abs(result.unitary - np.kron(u, v))) == 0.0
    assert cyclic_vector_residual([(u, v)], rep.factors) <= 1e-12
    assert intertwining_residual([(u, v.T)]) <= 1e-12
    assert cyclic_vector_residual([(u, v.T)], rep.factors) > 1e-3


def _plane_rotation(eps):
    u = np.eye(3)
    u[1:, 1:] = [[np.cos(eps), -np.sin(eps)], [np.sin(eps), np.cos(eps)]]
    return u


def test_near_stationary_implementer_keeps_its_report():
    # diag(1 - 1e-4, 1e-4, 0) turned by 1e-5 in the (e2, e3) plane has
    # isometry defect 1e-9, inside the default test; W theta misses theta by
    # 1e-7, past TRANSITION_TOL but within defect * n / sqrt(1e-4), so the
    # implementer is present and the scenario reports, as before the certificate
    m3 = StarAlgebra([3])
    f = State(m3, [np.diag([1 - 1e-4, 1e-4, 0.0])])
    rho = InnerAutomorphism(m3.element([_plane_rotation(1e-5)]))
    result = unitary_implementer(f, rho)
    assert result.unitary is not None
    rep = gns_construct(m3, f)
    assert np.max(np.abs(result.unitary @ rep.cyclic_vector - rep.cyclic_vector)) > 1e-8
    report = run_scenario(Scenario("symmetry", {"algebra": m3, "state": f,
                                                "automorphisms": [rho]}))
    assert "automorphism[0].implementer = present [computed]" in report.lines


def test_implementer_within_a_configured_isometry_tolerance_is_present():
    # a pure state moved by 2e-5 under Z passes an isometry test at 1e-3;
    # W theta = Z v (1 - 2e-10) is 2e-5 away from theta = v, the distance the
    # defect allows
    eps = 1e-5
    v = np.array([np.cos(eps), np.sin(eps)])
    f = State(M2, [np.outer(v, v)])
    result = unitary_implementer(f, PAULI_GROUP[3], tol=1e-3)
    assert result.unitary is not None
    assert result.isometry_defect > 1e-5


def test_cyclic_vector_certificate_raises_on_a_wrong_implementer():
    # V_b^T on the flat state of M3 passes the intertwining certificate with
    # isometry defect ~1e-16, so nothing explains its miss of theta
    m3 = StarAlgebra([3])
    f = State.tracial(m3)
    rng = np.random.default_rng(81)
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    defect = unitary_implementer(f, InnerAutomorphism(m3.element([u]))).isometry_defect
    (theta,) = gns_construct(m3, f).factors
    v = (np.linalg.pinv(theta) @ u.conj().T @ theta).T
    assert cyclic_vector_certificate([(u, v)], [theta], defect) <= 1e-12
    with pytest.raises(NumericalError, match="cyclic vector"):
        cyclic_vector_certificate([(u, v.T)], [theta], defect)


def test_implementer_uniqueness_via_independent_solve():
    f = State.tracial(M2)
    rho = PAULI_GROUP[1]
    result = unitary_implementer(f, rho)
    rep = gns_construct(M2, f)
    # oracle: cyclicity pins W through W pi(a) theta = pi(rho(a)) theta
    columns = np.stack([m @ rep.cyclic_vector for m in generator_matrices(rep)], axis=1)
    images = np.stack(
        [rep.represent(rho.apply(M2.basis_element(k))) @ rep.cyclic_vector
         for k in range(M2.dim)], axis=1)
    w_oracle = images @ np.linalg.pinv(columns)
    assert np.max(np.abs(w_oracle - result.unitary)) <= 1e-8


def test_stationarity_iff_implementer_on_pauli_suite():
    states = [
        State(M2, [np.diag([1.0, 0.0])]),
        State.tracial(M2),
        State(M2, [np.diag([0.75, 0.25])]),
        State.pure(M2, 0, [1.0, 1.0]),
        State.pure(M2, 0, [1.0, 1.0j]),
    ]
    for f in states:
        for rho in PAULI_GROUP:
            stationary = stationarity_check(f, rho)
            result = unitary_implementer(f, rho)
            assert stationary == (result.unitary is not None)


def test_automorphism_group_structure():
    group = AutomorphismGroup(PAULI_GROUP)
    assert len(group) == 4
    assert group.identity == 0
    mult = group.multiplier_table()
    assert np.allclose(np.abs(mult), 1.0, atol=1e-10)
    assert np.allclose(mult[0, :], 1.0, atol=1e-12)
    assert np.allclose(mult[:, 0], 1.0, atol=1e-12)


def test_automorphism_group_rejects_non_closed():
    angle = 0.7
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]],
                   dtype=complex)
    with pytest.raises(ValueError):
        AutomorphismGroup([_auto(np.eye(2)), _auto(rot)])


def test_stabilizer_orbit_examples():
    group = AutomorphismGroup(PAULI_GROUP)
    tracial_orbit = stabilizer_orbit(State.tracial(M2), group)
    assert tracial_orbit.stabilizer_size == 4
    assert tracial_orbit.orbit_size == 1
    excited_orbit = stabilizer_orbit(State(M2, [np.diag([1.0, 0.0])]), group)
    assert excited_orbit.stabilizer_size == 2     # identity and Ad(sigma_z)
    assert excited_orbit.orbit_size == 2
    assert excited_orbit.orbit_size * excited_orbit.stabilizer_size == 4
    assert excited_orbit.coset_count == 2


def test_orbit_law_on_diagonal_phase_group():
    phases = [np.diag([1.0, np.exp(2j * np.pi * k / 4)]) for k in range(4)]
    group = AutomorphismGroup([_auto(p) for p in phases])
    f = State.pure(M2, 0, [1.0, 1.0])
    report = stabilizer_orbit(f, group)
    assert report.orbit_size * report.stabilizer_size == len(group)
    assert report.orbit_size == 4


def test_one_parameter_flow_examples():
    rng = np.random.default_rng(82)
    alg = StarAlgebra([3])
    a = alg.random_element(rng)
    scalar = alg.element([2.5 * np.eye(3, dtype=complex)])
    moved = one_parameter_flow(scalar, 1.7, a)
    assert max(np.max(np.abs(x - y)) for x, y in zip(moved.mats, a.mats)) <= 1e-12
    frozen = one_parameter_flow(alg.random_hermitian(rng), 0.0, a)
    assert max(np.max(np.abs(x - y)) for x, y in zip(frozen.mats, a.mats)) <= 1e-14


def test_flow_generator_residual_halves():
    rng = np.random.default_rng(83)
    alg = StarAlgebra([3])
    for _ in range(5):
        b = alg.random_hermitian(rng)
        a = alg.random_element(rng)
        bracket = -1j * (b * a - a * b)

        def defect(h):
            diff = (1.0 / h) * (one_parameter_flow(b, h, a) - a) - bracket
            return max(np.max(np.abs(m)) for m in diff.mats)

        d1, d2 = defect(1e-3), defect(5e-4)
        assert d2 <= 0.6 * d1     # first-order error halves with the step


def test_flow_rejects_non_hermitian_generator():
    rng = np.random.default_rng(84)
    alg = StarAlgebra([2])
    with pytest.raises(OpalgError):
        one_parameter_flow(alg.random_element(rng), 0.1, alg.identity())


def test_derivation_vanishes_on_stationary_state():
    # density commuting with the generator: first-order finite differences of
    # f(G_t(a)) vanish, matching |f(i[b,a])| = 0
    rng = np.random.default_rng(85)
    b = M2.element([SIGMA_Z])
    f = State(M2, [np.diag([0.8, 0.2])])
    for _ in range(20):
        a = M2.random_element(rng)
        bracket = 1j * (b * a - a * b)
        assert abs(evaluate_state(f, bracket)) <= 1e-9 * a.norm()
        h = 1e-6
        fd = (evaluate_state(f, one_parameter_flow(b, h, a)) - evaluate_state(f, a)) / h
        assert abs(fd) <= 1e-6 * a.norm()
