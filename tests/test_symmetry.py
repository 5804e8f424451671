import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opalg import (
    AutomorphismGroup,
    InnerAutomorphism,
    NumericalError,
    OpalgError,
    ShapeMismatchError,
    StarAlgebra,
    State,
    dual_norm_distance,
    evaluate_state,
    gns_construct,
    pushforwards,
    stabilizer_orbit,
    unitary_implementer,
)
from opalg import symmetry
from opalg.algebra import stack_blocks, unitarity_failures
from opalg.gns import cyclic_vector_residual, intertwining_residual
from opalg.linalg import block_diag
from opalg.scenarios import Scenario, run_scenario
from opalg.symmetry import (ACTION_TOL, CLOSURE_ENTRY_LIMIT, CLOSURE_ROW_LIMIT, STATIONARY_TOL,
                            cyclic_vector_certificate)
from oracles import (automorphism_closure_by_loop, cyclic_vector_residual_by_pairs,
                     generator_matrices, implementer_by_loop, intertwining_residual_by_pairs,
                     one_parameter_flow, pushforwards_by_loop, stabilizer_orbit_by_pairs,
                     stationarity_check, trace_distance, unitarity_by_blocks)

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
    (same, flipped), distances = pushforwards(f, PAULI_GROUP[:2])
    assert dual_norm_distance(f, State(M2, same)) <= 1e-14
    assert np.max(np.abs(flipped[0] - np.diag([0.0, 1.0]))) <= 1e-14
    assert distances == [dual_norm_distance(f, State(M2, d)) for d in (same, flipped)]


def test_pushforward_composition_law():
    def pushed(state, auto):
        return State(M2, pushforwards(state, [auto])[0][0])
    rng = np.random.default_rng(81)
    for _ in range(10):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        dens = m @ m.conj().T
        f = State(M2, [dens / np.trace(dens).real])
        rho, tau = PAULI_GROUP[1], PAULI_GROUP[2]
        once = pushed(pushed(f, rho), tau)
        composed = pushed(f, InnerAutomorphism(rho.unitary * tau.unitary))
        # f_(rho.tau)(a) = f(rho(tau(a))): pushing by tau then rho
        other = pushed(pushed(f, tau), rho)
        assert dual_norm_distance(composed, other) <= 1e-12 or \
            dual_norm_distance(composed, once) <= 1e-12


def test_stationarity_examples():
    tracial = State.tracial(M2)
    for rho in PAULI_GROUP:
        assert stationarity_check(tracial, rho, STATIONARY_TOL)
    excited = State(M2, [np.diag([1.0, 0.0])])
    assert not stationarity_check(excited, PAULI_GROUP[1], STATIONARY_TOL)
    phase = _auto(np.diag([1.0, np.exp(0.7j)]))
    assert stationarity_check(excited, phase, STATIONARY_TOL)


def test_unitary_implementer_identity():
    f = State(M2, [np.diag([1.0, 0.0])])
    [result] = unitary_implementer(gns_construct(f.algebra, f), PAULI_GROUP[:1])
    assert result.unitary is not None
    assert np.max(np.abs(result.unitary - np.eye(result.unitary.shape[0]))) <= 1e-10


def test_unitary_implementer_tracial_flip():
    f = State.tracial(M2)
    [result] = unitary_implementer(gns_construct(f.algebra, f), PAULI_GROUP[1:2])
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
    [result] = unitary_implementer(gns_construct(f.algebra, f), PAULI_GROUP[1:2])
    assert result.unitary is None
    assert result.isometry_defect > 1e-3


def test_unitary_implementer_refuses_an_automorphism_of_another_algebra():
    # block by block, the M2 block alone would pass: X fixes the tracial state
    m2_m1 = StarAlgebra([2, 1])
    rho = InnerAutomorphism(m2_m1.element([SIGMA_X, np.eye(1)]))
    with pytest.raises(ShapeMismatchError):
        unitary_implementer(gns_construct(M2, State.tracial(M2)), [rho])


def test_cyclic_vector_residual_pins_the_implementer():
    # on a flat state every unitary U is stationary; the implementer's V_b and
    # its transpose are both unitary and pass the intertwining certificate,
    # but only V_b fixes the cyclic vector
    m3 = StarAlgebra([3])
    f = State.tracial(m3)
    rng = np.random.default_rng(81)
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    rep = gns_construct(m3, f)
    [result] = unitary_implementer(rep, [InnerAutomorphism(m3.element([u]))])
    (theta,), (lam,) = rep.factors, rep.eigenvalues
    # Theta^+ in closed form: the columns of Theta are orthogonal with squared norms lam
    v = (((1.0 / lam)[:, None] * theta.conj().T) @ u.conj().T @ theta).T
    assert np.max(np.abs(result.unitary - np.kron(u, v))) == 0.0
    assert cyclic_vector_residual([(u, v)], rep.factors) <= 1e-12
    assert intertwining_residual([(u, v.T)]) <= 1e-12
    assert cyclic_vector_residual([(u, v.T)], rep.factors) > 1e-3


def test_implementer_builds_its_dense_unitary_only_on_request():
    # a faithful M30 state: the dense W has 900^2 entries (12.4 MiB), the pairs
    # (U, V) 2 * 30^2 (28 KiB), so a peak under 1 MiB builds no carrier matrix
    m30 = StarAlgebra([30])
    f = State(m30, [np.diag(np.arange(1, 31) / 465.0)])
    u = np.diag(np.exp(0.1j * np.arange(30)))
    rho = InnerAutomorphism(m30.element([u]))
    tracemalloc.start()
    try:
        [result] = unitary_implementer(gns_construct(f.algebra, f), [rho])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    rep = gns_construct(m30, f)
    (theta,), (lam,) = rep.factors, rep.eigenvalues
    dense = block_diag([np.kron(u, (((1.0 / lam)[:, None] * theta.conj().T) @ u.conj().T @ theta).T)])
    assert np.array_equal(result.unitary, dense)
    assert result.unitary is not result.unitary


def _plane_rotation(eps):
    u = np.eye(3)
    u[1:, 1:] = [[np.cos(eps), -np.sin(eps)], [np.sin(eps), np.cos(eps)]]
    return u


def test_near_stationary_implementer_keeps_its_report():
    # diag(1 - 1e-4, 1e-4, 0) turned by 1e-5 in the (e2, e3) plane lies 2e-9
    # from its pushforward: not stationary at the default 1e-10, so no
    # implementer, but stationary at a configured 1e-8.  There W theta misses
    # theta by 1e-7, past TRANSITION_TOL but within defect * n / sqrt(1e-4)
    # (isometry defect 1e-9), so the implementer is present and the scenario
    # reports, as before the certificate
    m3 = StarAlgebra([3])
    f = State(m3, [np.diag([1 - 1e-4, 1e-4, 0.0])])
    rho = InnerAutomorphism(m3.element([_plane_rotation(1e-5)]))
    rep = gns_construct(m3, f)
    assert unitary_implementer(rep, [rho])[0].unitary is None
    [result] = unitary_implementer(rep, [rho], tol=1e-8)
    assert result.unitary is not None
    assert np.max(np.abs(result.unitary @ rep.cyclic_vector - rep.cyclic_vector)) > 1e-8
    params = {"algebra": m3, "state": f, "automorphisms": [rho]}
    default = run_scenario(Scenario("symmetry", params)).lines
    assert "automorphism[0].stationary = False [computed]" in default
    assert "automorphism[0].implementer = absent [computed]" in default
    configured = run_scenario(Scenario("symmetry", params, {"stationarity": 1e-8})).lines
    assert "automorphism[0].stationary = True [computed]" in configured
    assert "automorphism[0].implementer = present [computed]" in configured


def test_implementer_within_a_configured_stationarity_tolerance_is_present():
    # a pure state moved by 2e-5 under Z lies 4e-5 from its pushforward, inside
    # a stationarity tolerance of 1e-3; W theta = Z v (1 - 2e-10) is 2e-5 away
    # from theta = v, the distance the isometry defect allows
    eps = 1e-5
    v = np.array([np.cos(eps), np.sin(eps)])
    f = State(M2, [np.outer(v, v)])
    [result] = unitary_implementer(gns_construct(f.algebra, f), PAULI_GROUP[3:4], tol=1e-3)
    assert result.unitary is not None
    assert result.isometry_defect > 1e-5


def test_cyclic_vector_certificate_raises_on_a_wrong_implementer():
    # V_b^T on the flat state of M3 passes the intertwining certificate with
    # isometry defect ~1e-16, so nothing explains its miss of theta
    m3 = StarAlgebra([3])
    f = State.tracial(m3)
    rng = np.random.default_rng(81)
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    [result] = unitary_implementer(gns_construct(m3, f), [InnerAutomorphism(m3.element([u]))])
    defect = result.isometry_defect
    (theta,) = gns_construct(m3, f).factors
    v = (np.linalg.pinv(theta) @ u.conj().T @ theta).T
    assert cyclic_vector_certificate([(u, v)], [theta], defect) <= 1e-12
    with pytest.raises(NumericalError, match="cyclic vector"):
        cyclic_vector_certificate([(u, v.T)], [theta], defect)


def test_implementer_uniqueness_via_independent_solve():
    f = State.tracial(M2)
    rho = PAULI_GROUP[1]
    [result] = unitary_implementer(gns_construct(f.algebra, f), [rho])
    rep = gns_construct(M2, f)
    # oracle: cyclicity pins W through W pi(a) theta = pi(rho(a)) theta
    columns = np.stack([m @ rep.cyclic_vector for m in generator_matrices(rep)], axis=1)
    images = np.stack(
        [rep.represent(rho.unitary * M2.basis_element(k) * rho.unitary.star) @ rep.cyclic_vector
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
            stationary = stationarity_check(f, rho, STATIONARY_TOL)
            [result] = unitary_implementer(gns_construct(f.algebra, f), [rho])
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


def _random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _cyclic_unitaries(rng, blocks, order):
    """V^j for j < order, V = W diag(omega^e) W* per block, so the actions form Z_order."""
    omega = np.exp(2j * np.pi / order)
    bases = [_random_unitary(rng, n) for n in blocks]
    exps = [rng.integers(0, order, size=n) for n in blocks]
    return [[(w * (omega ** (j * e))[None, :]) @ w.conj().T for w, e in zip(bases, exps)]
            for j in range(order)]


def _pauli_unitaries(rng, blocks):
    """W (P + I) W* per block for P in I, X, Y, Z, a random phase on 1x1 blocks: Klein's group."""
    bases = [_random_unitary(rng, n) for n in blocks]

    def embedded(pauli, w, n):
        if n == 1:
            return np.exp(1j * rng.uniform(0, 2 * np.pi)) * np.eye(1)
        m = np.eye(n, dtype=complex)
        m[:2, :2] = pauli
        return w @ m @ w.conj().T

    return [[embedded(pauli, w, n) for w, n in zip(bases, blocks)]
            for pauli in (np.eye(2), SIGMA_X, SIGMA_Y, SIGMA_Z)]


def _closure_outcome(build):
    try:
        table, identity, multipliers = build()
    except (ValueError, OpalgError) as exc:
        return type(exc), str(exc)
    return table.tolist(), table.dtype, identity, multipliers.tobytes()


def _stacked(elements):
    group = AutomorphismGroup([InnerAutomorphism(e) for e in elements])
    return group.table, group.identity, group.multiplier_table()


def _listed_elements(seed, blocks, kind, order, phases, change):
    """A shuffled list of unitary elements: a group, or one with ``change`` made to it."""
    rng = np.random.default_rng(seed)
    if kind == "chain":
        # near-identity phases a multiple of ACTION_TOL / 2 apart: tolerance
        # ties decide the table, and some lists close without inverses
        blocks = [2]
        steps = rng.integers(-4, 5, size=order)
        mats = [[np.diag([np.exp(0.5j * ACTION_TOL * k), 1.0])] for k in steps]
    elif kind == "cyclic":
        mats = _cyclic_unitaries(rng, blocks, order)
    else:
        mats = _pauli_unitaries(rng, blocks)
    if phases != "none":
        turns = (rng.integers(0, 8, size=len(mats)) / 8 if phases == "eighths"
                 else rng.uniform(0, 1, size=len(mats)))
        mats = [[np.exp(2j * np.pi * t) * m for m in ms] for t, ms in zip(turns, mats)]
    if change == "tie":
        mats.append([np.exp(0.3j) * m for m in mats[rng.integers(len(mats))]])
    elif change == "no_identity" and len(mats) > 1:
        mats.pop(0)
    elif change == "no_inverse" and len(mats) > 2:
        mats.pop(int(rng.integers(1, len(mats))))
    elif change == "not_closed":
        mats.append([_random_unitary(rng, n) for n in blocks])
    elif change == "non_unitary_product":
        # |u* u - I| = 0.7 of the unitarity bound passes, its square's 1.4 does not
        k = int(rng.integers(len(mats)))
        mats[k] = [(1 + 0.35e-12 * max(1, blocks[0])) * mats[k][0]] + mats[k][1:]
    alg = StarAlgebra(blocks)
    return [alg.element(mats[k]) for k in rng.permutation(len(mats))]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       blocks=st.sampled_from([[1], [2], [3], [1, 2], [2, 2], [2, 3], [1, 2, 3]]),
       kind=st.sampled_from(["cyclic", "pauli", "chain"]), order=st.integers(1, 6),
       phases=st.sampled_from(["none", "eighths", "random"]),
       change=st.sampled_from(["none", "tie", "no_identity", "no_inverse", "not_closed",
                               "non_unitary_product"]))
# phase steps -1, -2 in this order: element 0 is the identity, but every
# product of element 1 first matches element 1
@example(seed=24, blocks=[2], kind="chain", order=2, phases="none", change="none")
# one element about ACTION_TOL from the identity: rounding puts its square
# within the tolerance of it, and the identity just past it
@example(seed=38, blocks=[2], kind="chain", order=1, phases="eighths", change="none")
def test_stacked_closure_equals_the_loop_oracle(seed, blocks, kind, order, phases, change):
    elements = _listed_elements(seed, blocks, kind, order, phases, change)
    stacked = _closure_outcome(lambda: _stacked(elements))
    assert stacked == _closure_outcome(lambda: automorphism_closure_by_loop(elements, ACTION_TOL))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       blocks=st.sampled_from([[1], [2], [1, 2], [2, 3]]),
       kind=st.sampled_from(["cyclic", "pauli", "chain"]), order=st.integers(2, 7),
       change=st.sampled_from(["none", "tie", "no_inverse", "not_closed", "non_unitary_product"]),
       run=st.integers(1, 3))
def test_closure_in_runs_of_rows_equals_the_loop_oracle(seed, blocks, kind, order, change, run):
    # a row limit that makes each run ``run`` rows long, the last one shorter
    elements = _listed_elements(seed, blocks, kind, order, "random", change)
    n = len(elements)
    row = n**2 * sum(m**4 for m in elements[0].algebra.blocks)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(symmetry, "CLOSURE_ROW_LIMIT", run * n * row)
        stacked = _closure_outcome(lambda: _stacked(elements))
    assert stacked == _closure_outcome(lambda: automorphism_closure_by_loop(elements, ACTION_TOL))


def test_closure_keeps_one_row_a_run_on_the_longest_lists():
    # 160 x M2 and 40 x M4 hold 409600 action entries a row, more than
    # CLOSURE_ROW_LIMIT / n, so their runs hold one row and their peak is a row's
    for blocks, order in (([2], 160), ([4], 40)):
        algebra = StarAlgebra(blocks)
        elements = [InnerAutomorphism(algebra.element(
            [np.diag(np.exp(2j * np.pi * k * np.arange(blocks[0]) / order))])) for k in range(order)]
        row = order**2 * blocks[0]**4
        assert row == 409600 and order * row > CLOSURE_ROW_LIMIT
        tracemalloc.start()
        try:
            group = AutomorphismGroup(elements)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        k = np.arange(order)
        assert np.array_equal(group.table, (k[:, None] + k[None, :]) % order)
        # one row: a complex difference and its modulus, 24 bytes an entry (9.4 MiB);
        # two rows a run would hold twice that
        assert peak < 1.3 * 24 * row


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), blocks=st.sampled_from([[1], [2], [3], [1, 2], [2, 3, 1]]),
       count=st.integers(1, 6))
def test_stacked_unitarity_equals_the_block_loop(seed, blocks, count):
    # unitaries scaled by 1 + c 1e-12, so the defects straddle the bound
    rng = np.random.default_rng(seed)
    algebra = StarAlgebra(blocks)
    elements = [algebra.element([(1 + rng.choice([0.0, 0.2, 0.45, 0.55, 2.0]) * 1e-12)
                                 * _random_unitary(rng, n) for n in blocks]) for _ in range(count)]
    want = [not unitarity_by_blocks(e) for e in elements]
    assert unitarity_failures(stack_blocks(elements)).tolist() == want
    assert [not e.is_unitary() for e in elements] == want


def _stationary_case(seed, blocks, order):
    """A state and a cyclic list of automorphisms of which those of a subgroup fix it."""
    elements = _listed_elements(seed, blocks, "cyclic", order, "random", "none")
    group = AutomorphismGroup([InnerAutomorphism(e) for e in elements])
    rng = np.random.default_rng(seed)
    ranks = [int(rng.integers(0, n + 1)) for n in blocks]
    ranks[-1] = max(ranks[-1], 1)
    f = _twirled_state(rng, group, int(rng.integers(len(group))), ranks)
    return f, group.elements


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       blocks=st.sampled_from([[1], [2], [3], [1, 2], [2, 3], [1, 2, 3], [4, 2]]),
       order=st.integers(1, 6), tol=st.sampled_from([STATIONARY_TOL, 1e-3]))
def test_stacked_implementers_equal_the_loop_oracle(seed, blocks, order, tol):
    f, autos = _stationary_case(seed, blocks, order)
    rep = gns_construct(f.algebra, f)
    moved, distances = pushforwards(f, autos)
    want_moved, want_distances = pushforwards_by_loop(f, autos)
    assert distances == want_distances
    assert all(np.array_equal(a, b) for m, w in zip(moved, want_moved) for a, b in zip(m, w))
    results = unitary_implementer(rep, autos, tol)
    for result, rho, m in zip(results, autos, moved):
        distance, defect, pairs, intertwining, cyclic = implementer_by_loop(rep, rho, tol)
        assert all(np.array_equal(a, b) for a, b in zip(result.moved, m))
        assert (result.distance, result.isometry_defect) == (distance, defect)
        assert result.intertwining_residual == intertwining
        if pairs is None:
            assert result.pairs is None
            continue
        assert all(np.array_equal(u, u2) and np.array_equal(v, v2)
                   for (u, v), (u2, v2) in zip(result.pairs, pairs))
        assert cyclic_vector_residual(result.pairs, rep.factors) == cyclic


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 5),
       blocks=st.sampled_from([[1, 2], [2, 3], [3], [2, 1, 2]]))
def test_stacked_certificates_equal_the_pair_loops(seed, count, blocks):
    # V far from unitary, and U with a largest entry whose libm square is not x * x,
    # so a residual differs if the stack squares otherwise than float ** 2
    rng = np.random.default_rng(seed)
    odd = next((x for x in rng.uniform(0.5, 1.0, size=100000).tolist()
                if x ** 2 != float(np.square(x))), 0.75)    # 0.75 where pow is x * x
    ranks = [int(rng.integers(0, n + 1)) for n in blocks]
    ranks[0] = max(ranks[0], 1)
    thetas = [rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r)) for n, r in zip(blocks, ranks)]
    stacks = []
    for n, r in zip(blocks, ranks):
        u = 0.1 * rng.normal(size=(count, n, n)) + 0.1j * rng.normal(size=(count, n, n))
        u[:, 0, 0] = odd
        stacks.append((u, rng.normal(size=(count, r, r)) + 1j * rng.normal(size=(count, r, r))))
    pairs_each = [[(u[k], v[k]) for u, v in stacks] for k in range(count)]
    assert intertwining_residual(stacks).tolist() == [intertwining_residual_by_pairs(p)
                                                      for p in pairs_each]
    assert cyclic_vector_residual(stacks, thetas).tolist() == [
        cyclic_vector_residual_by_pairs(p, thetas) for p in pairs_each]
    assert [float(intertwining_residual(p)) for p in pairs_each] == [
        intertwining_residual_by_pairs(p) for p in pairs_each]


def test_closure_limit_refuses_162_automorphisms_before_any_product():
    # 162^3 * 2^4 action entries exceed the limit, 160^3 * 2^4 do not
    elements = [InnerAutomorphism(M2.element([np.diag([1.0, np.exp(2j * np.pi * k / 162)])]))
                for k in range(162)]
    tracemalloc.start()
    try:
        with pytest.raises(NumericalError, match="closure of 162 automorphisms of blocks"):
            AutomorphismGroup(elements)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 162**3 * 16 > CLOSURE_ENTRY_LIMIT
    assert peak < 64 << 10


def test_closure_limit_admits_160_automorphisms():
    assert 160**3 * 16 <= CLOSURE_ENTRY_LIMIT
    elements = [InnerAutomorphism(M2.element([np.diag([1.0, np.exp(2j * np.pi * k / 160)])]))
                for k in range(160)]
    group = AutomorphismGroup(elements)
    k = np.arange(160)
    assert np.array_equal(group.table, (k[:, None] + k[None, :]) % 160)
    assert group.identity == 0


def test_closure_row_limit_refuses_one_faithful_m90_automorphism():
    # one automorphism of M90 compares 90^4 action entries, inside the work
    # limit, but its one row would hold them all (about 3 GB); a row of 160 x M2
    # holds 160^2 * 2^4 = 409600
    assert 90**4 <= CLOSURE_ENTRY_LIMIT and 160**2 * 16 <= CLOSURE_ROW_LIMIT < 90**4
    m90 = StarAlgebra([90])
    elements = [InnerAutomorphism(m90.element([np.diag(np.exp(0.1j * np.arange(90)))]))]
    tracemalloc.start()
    try:
        with pytest.raises(NumericalError, match="blocks \\[90\\] holds 65610000 action entries"):
            AutomorphismGroup(elements)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_stabilizer_orbit_examples():
    group = AutomorphismGroup(PAULI_GROUP)
    tracial_orbit = stabilizer_orbit(*pushforwards(State.tracial(M2), group.elements))
    assert tracial_orbit.stabilizer_size == 4
    assert tracial_orbit.orbit_size == 1
    excited_orbit = stabilizer_orbit(*pushforwards(State(M2, [np.diag([1.0, 0.0])]), group.elements))
    assert excited_orbit.stabilizer_size == 2     # identity and Ad(sigma_z)
    assert excited_orbit.orbit_size == 2
    assert excited_orbit.orbit_size * excited_orbit.stabilizer_size == 4


def test_orbit_law_on_diagonal_phase_group():
    phases = [np.diag([1.0, np.exp(2j * np.pi * k / 4)]) for k in range(4)]
    group = AutomorphismGroup([_auto(p) for p in phases])
    f = State.pure(M2, 0, [1.0, 1.0])
    report = stabilizer_orbit(*pushforwards(f, group.elements))
    assert report.orbit_size * report.stabilizer_size == len(group)
    assert report.orbit_size == 4


def _twirled_state(rng, group, generator, ranks):
    """A random state of the given block ranks, averaged over the cyclic subgroup of ``generator``."""
    power = [group.identity]
    while group.table[power[-1], generator] != group.identity:
        power.append(int(group.table[power[-1], generator]))
    factors = [rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
               for n, r in zip(group.algebra.blocks, ranks)]
    total = sum(np.sum(np.abs(m) ** 2) for m in factors)
    f = State(group.algebra, [m @ m.conj().T / total for m in factors])
    moved, _ = pushforwards(f, [group.elements[h] for h in power])
    return State(group.algebra, [sum(block) / len(moved) for block in zip(*moved)])


def _orbit_outcome(run):
    try:
        stabilizer, orbit = run()
    except OpalgError as exc:
        return str(exc)
    return stabilizer, len(orbit), [[d.tobytes() for d in dens] for dens in orbit]


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       # Klein's group embedded in a block of 3 or more does not close
       kind_blocks=st.one_of(
           st.tuples(st.just("cyclic"), st.sampled_from([[1], [2], [3], [1, 2], [2, 3], [1, 2, 3],
                                                         [3, 2, 3], [9], [2, 10], [3, 9, 4]])),
           st.tuples(st.just("pauli"), st.sampled_from([[2], [1, 2], [2, 2], [1, 2, 2]]))),
       order=st.integers(1, 6), generator=st.integers(0, 5), tie=st.booleans())
@example(seed=3, kind_blocks=("pauli", [1, 2, 2]), order=1, generator=1, tie=True)
@example(seed=5, kind_blocks=("cyclic", [9]), order=6, generator=2, tie=False)
@example(seed=7, kind_blocks=("cyclic", [2, 10]), order=4, generator=2, tie=True)
# summing the three blocks' trace norms in reverse order moves a tied distance
@example(seed=0, kind_blocks=("cyclic", [3, 9, 4]), order=6, generator=0, tie=True)
@example(seed=0, kind_blocks=("cyclic", [1, 2, 3]), order=4, generator=0, tie=True)
def test_stacked_orbit_equals_the_pair_oracle(seed, kind_blocks, order, generator, tie):
    # the state is fixed by the subgroup one element spans, so stabilizers and
    # orbits of every size occur; with ``tie`` the threshold is one of the
    # distances the orbit compares, so a bit of difference would change a count
    kind, blocks = kind_blocks
    elements = _listed_elements(seed, blocks, kind, order, "random", "none")
    group = AutomorphismGroup([InnerAutomorphism(e) for e in elements])
    rng = np.random.default_rng(seed)
    ranks = [int(rng.integers(0, n + 1)) for n in blocks]
    k = int(rng.integers(len(ranks)))
    ranks[k] = max(ranks[k], 1)
    f = _twirled_state(rng, group, generator % len(group), ranks)
    tol = STATIONARY_TOL
    if tie and len(group) > 1:    # element 0 always starts the orbit, and b meets it
        b = int(rng.integers(1, len(group)))
        moved, _ = pushforwards(f, [group.elements[b], group.elements[0]])
        tol = trace_distance(*moved)

    def stacked():
        report = stabilizer_orbit(*pushforwards(f, group.elements), tol)
        return report.stabilizer_size, report.orbit_states

    def by_pairs():
        stabilizer, orbit = stabilizer_orbit_by_pairs(f, group.elements, tol)
        if len(orbit) * stabilizer != len(group):
            raise OpalgError(f"orbit law violated: {len(orbit)} * {stabilizer} != {len(group)}")
        return stabilizer, orbit

    assert _orbit_outcome(stacked) == _orbit_outcome(by_pairs)


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
