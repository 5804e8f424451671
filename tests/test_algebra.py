import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from opalg import (
    InvalidStateError,
    ShapeMismatchError,
    StarAlgebra,
    State,
    dual_norm_distance,
    evaluate_state,
    operator_norm,
    transport_residual,
)
from opalg.linalg import nuclear_norm

M2 = StarAlgebra([2])
M2M2 = StarAlgebra([2, 2])


def test_block_dimensions_must_be_positive():
    with pytest.raises(ValueError):
        StarAlgebra([2, 0])
    with pytest.raises(ValueError):
        StarAlgebra([])


def test_operator_norm_identity_is_one():
    assert operator_norm(M2.identity()) == 1.0


def test_operator_norm_diagonal():
    a = M2.element([np.diag([3.0, -1.0])])
    assert operator_norm(a) == pytest.approx(3.0, abs=1e-14)


def test_operator_norm_nilpotent_by_eigensolver_oracle():
    mat = np.array([[0.0, 2.0], [0.0, 0.0]])
    a = M2.element([mat])
    # oracle: largest eigenvalue of a*a is 4, so the norm is 2
    lam = np.linalg.eigvalsh(mat.conj().T @ mat)
    assert lam[-1] == pytest.approx(4.0, abs=1e-14)
    assert operator_norm(a) == pytest.approx(np.sqrt(lam[-1]), abs=1e-12)


def test_cstar_identity_on_random_elements():
    rng = np.random.default_rng(11)
    alg = StarAlgebra([3, 2])
    for _ in range(100):
        a = alg.random_element(rng)
        n = operator_norm(a)
        assert abs(operator_norm(a.star * a) - n**2) <= 1e-9 * n**2


def test_involution_is_antimultiplicative():
    rng = np.random.default_rng(12)
    alg = StarAlgebra([2, 3])
    for _ in range(25):
        a = alg.random_element(rng)
        b = alg.random_element(rng)
        lhs = (a * b).star
        rhs = b.star * a.star
        assert max(np.max(np.abs(x - y)) for x, y in zip(lhs.mats, rhs.mats)) <= 1e-12
        again = a.star.star
        assert max(np.max(np.abs(x - y)) for x, y in zip(again.mats, a.mats)) == 0.0


def test_identity_is_involution_fixed_point():
    one = M2M2.identity()
    assert all(np.array_equal(x, y) for x, y in zip(one.star.mats, one.mats))


def test_evaluate_state_examples():
    f = State(M2, [np.diag([1.0, 0.0])])
    a = M2.element([np.diag([0.3 + 0.1j, -0.7])])
    assert evaluate_state(f, a) == pytest.approx(0.3 + 0.1j, abs=1e-14)
    assert evaluate_state(f, M2.identity()) == pytest.approx(1.0, abs=1e-14)
    mixed = State(M2, [0.5 * np.eye(2)])
    off = M2.element([np.array([[0.0, 1.0], [1.0, 0.0]])])
    assert evaluate_state(mixed, off) == pytest.approx(0.0, abs=1e-14)


def test_state_conjugate_symmetry_and_cauchy_schwarz():
    rng = np.random.default_rng(13)
    alg = StarAlgebra([3, 2])
    f = _random_state(alg, rng)
    for _ in range(50):
        a = alg.random_element(rng)
        b = alg.random_element(rng)
        assert evaluate_state(f, a.star) == pytest.approx(np.conj(evaluate_state(f, a)), abs=1e-12)
        lhs = abs(evaluate_state(f, b.star * a)) ** 2
        rhs = evaluate_state(f, a.star * a).real * evaluate_state(f, b.star * b).real
        assert lhs <= rhs + 1e-9


def _random_state(alg, rng):
    dens = []
    for n in alg.blocks:
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        dens.append(m @ m.conj().T)
    total = sum(np.trace(d).real for d in dens)
    return State(alg, [d / total for d in dens])


def test_dual_norm_distance_examples():
    f = State(M2, [np.diag([1.0, 0.0])])
    g = State(M2, [np.diag([0.0, 1.0])])
    assert dual_norm_distance(f, f) == 0.0
    # oracle: singular values of diag(1, -1) sum to 2
    assert dual_norm_distance(f, g) == pytest.approx(2.0, abs=1e-12)
    p = State.pure(M2M2, 0, [1.0, 0.0])
    q = State.pure(M2M2, 1, [0.0, 1.0])
    assert dual_norm_distance(p, q) == pytest.approx(2.0, abs=1e-12)


def test_dual_norm_is_a_metric_on_samples():
    rng = np.random.default_rng(14)
    alg = StarAlgebra([2, 2])
    for _ in range(30):
        f, g, h = (_random_state(alg, rng) for _ in range(3))
        assert dual_norm_distance(f, g) <= (
            dual_norm_distance(f, h) + dual_norm_distance(h, g) + 1e-9
        )
        assert dual_norm_distance(f, g) == pytest.approx(dual_norm_distance(g, f), abs=1e-12)


def test_trace_norm_dominates_sampled_sup():
    rng = np.random.default_rng(15)
    alg = StarAlgebra([3])
    f = _random_state(alg, rng)
    g = _random_state(alg, rng)
    dist = dual_norm_distance(f, g)
    for _ in range(100):
        a = alg.random_element(rng)
        a = (1.0 / operator_norm(a)) * a
        assert abs(evaluate_state(f, a) - evaluate_state(g, a)) <= dist + 1e-9


def test_positive_form_norms_add():
    # |f1 + f2| = |f1| + |f2| for positive forms: trace norm of a PSD sum is its trace
    rng = np.random.default_rng(16)
    for _ in range(20):
        m1 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        m2 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        p1 = m1 @ m1.conj().T
        p2 = m2 @ m2.conj().T
        lhs = nuclear_norm(p1 + p2)
        rhs = np.trace(p1).real + np.trace(p2).real
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_block_projection_never_increases_norm():
    rng = np.random.default_rng(17)
    alg = StarAlgebra([3, 2, 4])
    for _ in range(30):
        a = alg.random_element(rng)
        full = operator_norm(a)
        for b, n in enumerate(alg.blocks):
            single = StarAlgebra([n]).element([a.mats[b]])
            assert operator_norm(single) <= full + 1e-12


def test_state_validation_rejects_bad_densities():
    with pytest.raises(InvalidStateError):
        State(M2, [np.diag([1.1, -0.1])])          # negative eigenvalue beyond tolerance
    with pytest.raises(InvalidStateError):
        State(M2, [np.diag([0.25, 0.25])])         # trace 1/2
    with pytest.raises(InvalidStateError):
        State(M2, [np.array([[0.5, 0.4], [0.1, 0.5]])])  # not Hermitian
    # numerical closure of the cone: tiny negatives are clamped
    ok = State(M2, [np.diag([1.0, -1e-13])])
    assert min(np.linalg.eigvalsh(ok.densities[0])) >= 0.0


def test_shape_mismatch_errors():
    f = State(M2, [np.diag([1.0, 0.0])])
    other = StarAlgebra([3]).identity()
    with pytest.raises(ShapeMismatchError):
        evaluate_state(f, other)
    with pytest.raises(ShapeMismatchError):
        dual_norm_distance(f, State.tracial(M2M2))


def _random_state(alg, rng):
    dens = []
    for n in alg.blocks:
        r = int(rng.integers(0, n + 1))
        m = rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
        dens.append(m @ m.conj().T)
    if not any(np.trace(d).real > 0 for d in dens):
        dens[0] = np.eye(alg.blocks[0])
    total = sum(np.trace(d).real for d in dens)
    return State(alg, [d / total for d in dens])


@settings(max_examples=60, deadline=None)
@given(blocks=st.lists(st.integers(1, 4), min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-3, 1.0, 30.0]),
       partner=st.sampled_from(["random", "transported"]))
def test_transport_residual_agrees_with_per_unit_oracle(blocks, seed, scale, partner):
    rng = np.random.default_rng(seed)
    alg = StarAlgebra(blocks)
    f = _random_state(alg, rng)
    if partner == "transported":
        # g = f(b* . b) for a blockwise unitary b: both residuals are round-off
        b = alg.element([np.linalg.qr(m)[0] for m in alg.random_element(rng).mats])
        g = State(alg, [m @ d @ m.conj().T for m, d in zip(b.mats, f.densities)])
    else:
        b = alg.random_element(rng, scale)
        g = _random_state(alg, rng)
    got = transport_residual(f, g, b)
    want = oracles.transport_residual_by_units(f, g, b)
    # float64 round-off of the n_b-term sums in b rho b*, for entries of size |b|^2
    assert abs(got - want) <= 1e-13 * max(1.0, b.norm() ** 2)


def test_transport_residual_rejects_mixed_algebras():
    with pytest.raises(ShapeMismatchError):
        transport_residual(State.tracial(M2), State.tracial(M2M2), M2.identity())
