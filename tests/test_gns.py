import numpy as np
import pytest

from opalg import (
    OpalgError,
    StarAlgebra,
    State,
    commutant_basis,
    dual_norm_distance,
    equivalence_check,
    evaluate_state,
    gns_construct,
    parse_scenario,
    pure_unitary_intertwiner,
    purity_check,
    run_scenario,
)
import oracles
from oracles import superselection_operator

M2 = StarAlgebra([2])
M2M2 = StarAlgebra([2, 2])
CC = StarAlgebra([1, 1])


def _random_state(alg, rng, ranks=None):
    dens = []
    for b, n in enumerate(alg.blocks):
        r = n if ranks is None else ranks[b]
        if r == 0:
            dens.append(np.zeros((n, n), dtype=complex))
            continue
        m = rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
        dens.append(m @ m.conj().T)
    total = sum(np.trace(d).real for d in dens)
    return State(alg, [d / total for d in dens])


def _brute_force_gram_rank(alg, f):
    # independent of the package: assemble f(b* a) on matrix units by plain loops
    elements = []
    for b, n in enumerate(alg.blocks):
        for i in range(n):
            for j in range(n):
                mats = [np.zeros((m, m), dtype=complex) for m in alg.blocks]
                mats[b][i, j] = 1.0
                elements.append(mats)
    dim = len(elements)
    gram = np.zeros((dim, dim), dtype=complex)
    for r in range(dim):
        for c in range(dim):
            val = 0.0
            for rho, x, y in zip(f.densities, elements[r], elements[c]):
                val += np.trace(rho @ (x.conj().T @ y))
            gram[r, c] = val
    return np.linalg.matrix_rank(gram, tol=1e-10)


def test_gns_pure_state_gives_defining_representation():
    f = State(M2, [np.diag([1.0, 0.0])])
    rep = gns_construct(M2, f)
    assert rep.carrier_dim == 2
    assert _brute_force_gram_rank(M2, f) == 2
    # cyclic vector is a basis vector up to phase
    mags = np.sort(np.abs(rep.cyclic_vector))
    assert mags[0] <= 1e-12 and abs(mags[1] - 1.0) <= 1e-12
    # cyclic vector reproduces the state
    vals = rep.vector_state_values()
    for k in range(M2.dim):
        assert vals[k] == pytest.approx(evaluate_state(f, M2.basis_element(k)), abs=1e-12)


def test_gns_rejects_non_psd_gram():
    # the rank cut refuses nothing: a State refuses a density with eigenvalue -0.5, and
    # the group rule a kernel with that spectrum (psi = (0.5, 1) on Z_2 has eigenvalues
    # 1.5 and -0.5), before either spectrum is cut
    from opalg import InvalidStateError
    from opalg.groups import cyclic_group, gns_from_group_function, is_positive_definite

    with pytest.raises(InvalidStateError, match="eigenvalue -5.000e-01"):
        State(M2, [np.diag([1.5, -0.5])])
    z2, psi = cyclic_group(2), np.array([0.5, 1.0])
    assert not is_positive_definite(z2, psi)
    with pytest.raises(InvalidStateError, match="not positive-definite"):
        gns_from_group_function(z2, psi)


def test_phase_pinning_equals_the_column_loop():
    # every pivot from one argmax over the columns, each column still scaled by the
    # scalar |p| / p: the same bits as the per-column loop, on ties, zero and real columns
    from opalg.linalg import fix_phases

    rng = np.random.default_rng(25)
    for case in range(200):
        n, k = rng.integers(1, 7), rng.integers(0, 7)
        v = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
        v = [v, np.round(v), v.real + 0j, 1e-200 * v][case % 4]
        v[:, : k // 3] = 0.0
        got, want = fix_phases(v), oracles.fix_phases_by_columns(v)
        assert np.array_equal(got.view(float), want.view(float))
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))
        pivots = got[np.argmax(np.abs(got), axis=0), np.arange(k)]
        assert np.all((np.abs(pivots.imag) <= 1e-15 * np.abs(pivots)) & (pivots.real >= 0.0))


def test_gns_tracial_state_has_four_dimensional_carrier():
    f = State.tracial(M2)
    rep = gns_construct(M2, f)
    assert rep.carrier_dim == 4
    assert len(commutant_basis(rep)) == 4


def test_gns_on_direct_sum_of_scalars():
    f = State(CC, [np.array([[1.0]]), np.array([[0.0]])])
    rep = gns_construct(CC, f)
    assert rep.carrier_dim == 1
    a = CC.element([np.array([[0.3 + 0.2j]]), np.array([[5.0]])])
    assert rep.represent(a)[0, 0] == pytest.approx(0.3 + 0.2j, abs=1e-12)


def test_gns_is_star_homomorphism_with_cyclic_vector():
    rng = np.random.default_rng(21)
    alg = StarAlgebra([3, 2])
    for _ in range(10):
        f = _random_state(alg, rng)
        rep = gns_construct(alg, f)
        a = alg.random_element(rng)
        b = alg.random_element(rng)
        pa, pb = rep.represent(a), rep.represent(b)
        assert np.max(np.abs(rep.represent(a * b) - pa @ pb)) <= 1e-9
        assert np.max(np.abs(rep.represent(a.star) - pa.conj().T)) <= 1e-9
        # cyclicity: pi(basis) theta spans the carrier
        span = np.stack([m @ rep.cyclic_vector for m in oracles.generator_matrices(rep)], axis=1)
        assert np.linalg.matrix_rank(span, tol=1e-10) == rep.carrier_dim


def test_gns_reconstruction_on_random_elements():
    rng = np.random.default_rng(22)
    alg = StarAlgebra([3, 2])
    f = _random_state(alg, rng)
    rep = gns_construct(alg, f)
    th = rep.cyclic_vector
    for _ in range(100):
        a = alg.random_element(rng)
        recon = np.vdot(th, rep.represent(a) @ th)
        assert abs(recon - evaluate_state(f, a)) <= 1e-9


def test_vector_form_consistency():
    rng = np.random.default_rng(23)
    alg = StarAlgebra([2, 3])
    f = _random_state(alg, rng)
    # (pi, theta) gives back the densities Theta_b Theta_b*
    rebuilt = State(alg, [t @ t.conj().T for t in gns_construct(alg, f).factors])
    assert dual_norm_distance(f, rebuilt) <= 1e-9


def test_commutant_of_diagonal_action():
    # C + C acting on C^2: commutant is the diagonal algebra, dimension 2
    f = State(CC, [np.array([[0.5]]), np.array([[0.5]])])
    rep = gns_construct(CC, f)
    assert rep.carrier_dim == 2
    assert len(commutant_basis(rep)) == 2


def test_commutant_always_contains_identity():
    rng = np.random.default_rng(24)
    alg = StarAlgebra([2, 2])
    f = _random_state(alg, rng)
    rep = gns_construct(alg, f)
    basis = commutant_basis(rep)
    eye = np.eye(rep.carrier_dim)
    coeffs, residual, *_ = np.linalg.lstsq(
        np.stack([b.reshape(-1) for b in basis], axis=1), eye.reshape(-1), rcond=None)
    recon = sum(c * b for c, b in zip(coeffs, basis))
    assert np.max(np.abs(recon - eye)) <= 1e-9


def _rank_pattern_oracle(f, tol=1e-9):
    ranks = []
    for d in f.densities:
        lam = np.linalg.eigvalsh(d)
        ranks.append(int(np.sum(lam > tol * max(lam[-1], 1e-300))))
    return ranks


def test_purity_examples():
    assert purity_check(M2, State.pure(M2, 0, [0.6, 0.8j])) == "pure"
    assert purity_check(M2, State.tracial(M2)) == "mixed"
    two_blocks = State(M2M2, [0.5 * np.diag([1.0, 0.0]), 0.5 * np.diag([1.0, 0.0])])
    assert purity_check(M2M2, two_blocks) == "mixed"


def test_purity_agrees_with_density_rank_oracle():
    rng = np.random.default_rng(25)
    for _ in range(40):
        ranks = [int(rng.integers(0, 3)) for _ in range(2)]
        if sum(ranks) == 0:
            continue
        f = _random_state(M2M2, rng, ranks=ranks)
        oracle = _rank_pattern_oracle(f)
        expected = "pure" if sum(oracle) == 1 else "mixed"
        assert purity_check(M2M2, f) == expected


def test_equivalence_equal_pure_states():
    f = State.pure(M2, 0, [1.0, 0.0])
    report = equivalence_check(M2, f, f)
    assert report.verdict == "equal"
    assert report.equivalent
    assert np.array_equal(report.intertwiner, np.eye(2))
    b, b_back = report.transition
    assert np.max(np.abs(b.mats[0] - np.eye(2))) == 0.0
    assert np.max(np.abs(b_back.mats[0] - np.eye(2))) == 0.0


def test_equivalence_same_block_pure_states():
    f = State.pure(M2, 0, [1.0, 0.0])
    g = State.pure(M2, 0, [0.0, 1.0])
    report = equivalence_check(M2, f, g)
    assert report.verdict == "equivalent"
    assert report.intertwiner_residual <= 1e-8


def test_equivalence_cross_block_pure_states():
    f = State.pure(M2M2, 0, [1.0, 0.0])
    g = State.pure(M2M2, 1, [1.0, 0.0])
    report = equivalence_check(M2M2, f, g)
    assert report.verdict == "inequivalent"
    assert report.kernel_first != report.kernel_second
    assert report.transition is None


def test_equivalence_detects_multiplicity_mismatch():
    rng = np.random.default_rng(26)
    f = _random_state(M2M2, rng, ranks=[2, 1])
    g = _random_state(M2M2, rng, ranks=[1, 2])
    report = equivalence_check(M2M2, f, g)
    assert report.verdict == "inequivalent"
    assert report.kernel_first == report.kernel_second == ()


def test_equal_states_whose_rank_vectors_split_at_the_cut():
    # 4.4e-12 lies above the rank cut dim * 1e-12 * 0.5 = 4e-12 and 3.6e-12
    # below it, so the two states differ by 8e-13 but get rank vectors (2, 1)
    # and (1, 2); as one state, I intertwines pi_f with itself
    f = State(M2M2, [np.diag([0.5, 4.4e-12]), np.diag([0.5, 3.6e-12])])
    g = State(M2M2, [np.diag([0.5, 3.6e-12]), np.diag([0.5, 4.4e-12])])
    assert (gns_construct(M2M2, f).ranks, gns_construct(M2M2, g).ranks) == ((2, 1), (1, 2))
    report = equivalence_check(M2M2, f, g)
    assert report.verdict == oracles.equivalence_verdict(M2M2, f, g) == "equal"
    assert report.intertwiner_residual == 0.0
    assert np.array_equal(report.intertwiner, np.eye(6))
    assert report.transition_residual <= 1e-12


def test_equal_states_with_different_carrier_dimensions():
    # 8e-13 apart, but the rank cut gives carrier dimensions 6 and 4: one
    # state, so the identity is certified on the first state's representation
    f = State(M2M2, [np.diag([0.5, 4.4e-12]), np.diag([0.5, 0.0])])
    g = State(M2M2, [np.diag([0.5, 3.6e-12]), np.diag([0.5, 0.0])])
    report = equivalence_check(M2M2, f, g)
    assert report.carrier_dims == (6, 4)
    assert report.verdict == oracles.equivalence_verdict(M2M2, f, g) == "equal"
    assert not report.note
    assert report.intertwiner_residual == 0.0
    assert np.array_equal(report.intertwiner, np.eye(6))
    assert report.transition_residual <= 1e-12


def test_equivalence_with_matching_multiplicities_on_mixed_blocks():
    # same rank pattern on unequal blocks: representations coincide up to
    # an invertible intertwiner even though the states differ
    rng = np.random.default_rng(33)
    alg = StarAlgebra([3, 2])
    f = _random_state(alg, rng, ranks=[1, 2])
    g = _random_state(alg, rng, ranks=[1, 2])
    report = equivalence_check(alg, f, g)
    assert report.verdict == "equivalent"
    assert report.carrier_dims == (7, 7)
    assert report.intertwiner_residual <= 1e-8
    # different multiplicity split on the same blocks changes the carrier size
    h = _random_state(alg, rng, ranks=[2, 2])
    report2 = equivalence_check(alg, f, h)
    assert report2.verdict == "inequivalent"
    assert "carrier dimensions" in report2.note


def test_transition_elements_verify_both_identities():
    f = State.pure(M2, 0, [1.0, 0.0])
    g = State.pure(M2, 0, [0.0, 1.0])
    pair = equivalence_check(M2, f, g).transition
    assert pair is not None
    b, b_back = pair
    for k in range(M2.dim):
        e = M2.basis_element(k)
        assert abs(evaluate_state(g, e) - evaluate_state(f, b.star * e * b)) <= 1e-8
        assert abs(evaluate_state(f, e) - evaluate_state(g, b_back.star * e * b_back)) <= 1e-8


def test_flip_matrix_is_a_valid_transition_element():
    # theorem oracle: direct verification that the flip works for e1 -> e2
    f = State.pure(M2, 0, [1.0, 0.0])
    g = State.pure(M2, 0, [0.0, 1.0])
    flip = M2.element([np.array([[0.0, 1.0], [1.0, 0.0]])])
    for k in range(M2.dim):
        e = M2.basis_element(k)
        assert abs(evaluate_state(g, e) - evaluate_state(f, flip.star * e * flip)) <= 1e-12


def test_transition_absent_across_blocks():
    f = State.pure(M2M2, 0, [1.0, 0.0])
    g = State.pure(M2M2, 1, [1.0, 0.0])
    assert equivalence_check(M2M2, f, g).transition is None


def test_transition_for_random_mixed_equivalent_states():
    rng = np.random.default_rng(27)
    f = _random_state(StarAlgebra([2]), rng)
    g = _random_state(StarAlgebra([2]), rng)
    alg = StarAlgebra([2])
    pair = equivalence_check(alg, f, g).transition
    assert pair is not None
    b, b_back = pair
    for k in range(alg.dim):
        e = alg.basis_element(k)
        assert abs(evaluate_state(g, e) - evaluate_state(f, b.star * e * b)) <= 1e-8
        assert abs(evaluate_state(f, e) - evaluate_state(g, b_back.star * e * b_back)) <= 1e-8


def test_pure_unitary_intertwiner_identity_case():
    f = State.pure(M2, 0, [1.0, 0.0])
    u = pure_unitary_intertwiner(gns_construct(M2, f), gns_construct(M2, f))
    assert np.max(np.abs(u.mats[0] - np.eye(2))) <= 1e-12


def test_pure_unitary_intertwiner_flip_case():
    f = State.pure(M2, 0, [1.0, 0.0])
    g = State.pure(M2, 0, [0.0, 1.0])
    u = pure_unitary_intertwiner(gns_construct(M2, f), gns_construct(M2, g))
    assert u.is_unitary()
    # g(a) = f(U* a U) evaluates a at the (2,2) entry
    e22 = M2.element([np.diag([0.0, 1.0])])
    assert evaluate_state(f, u.star * e22 * u) == pytest.approx(1.0, abs=1e-12)


def test_pure_unitary_intertwiner_rejects_mixed_and_cross_block():
    f, g = State.tracial(M2), State.pure(M2, 0, [1.0, 0.0])
    with pytest.raises(OpalgError):
        pure_unitary_intertwiner(gns_construct(M2, f), gns_construct(M2, g))
    f = State.pure(M2M2, 0, [1.0, 0.0])
    g = State.pure(M2M2, 1, [1.0, 0.0])
    assert pure_unitary_intertwiner(gns_construct(M2M2, f), gns_construct(M2M2, g)) is None


NEARLY_PURE_PAIR = """\
kind: equiv
algebra: {blocks: [2]}
states:
  - densities: [[[[0.9999999999, 0], [0, 0]], [[0, 0], [1.0e-10, 0]]]]
  - densities: [[[[1.0e-10, 0], [0, 0]], [[0, 0], [0.9999999999, 0]]]]
"""


def test_pure_unitary_intertwiner_judges_purity_by_the_gns_ranks():
    # the small eigenvalue 1e-10 lies above the GNS rank cut (4e-12 on M2), so
    # both states are mixed, whatever a looser relative cut would say
    f, g = parse_scenario(NEARLY_PURE_PAIR).params["states"]
    rep_f, rep_g = gns_construct(M2, f), gns_construct(M2, g)
    assert rep_f.ranks == rep_g.ranks == (2,)
    assert purity_check(M2, f) == purity_check(M2, g) == "mixed"
    with pytest.raises(OpalgError):
        pure_unitary_intertwiner(rep_f, rep_g)
    lines = run_scenario(parse_scenario(NEARLY_PURE_PAIR)).lines
    assert "verdict = equivalent [computed]" in lines
    assert "carrier_dims = [4, 4] [computed]" in lines
    assert "pure_unitary_intertwiner = absent [computed]" in lines
    assert not any(line.startswith("unitary_block") for line in lines)


def test_norm_distance_criterion_for_pure_states():
    rng = np.random.default_rng(28)
    for _ in range(25):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        w = rng.normal(size=2) + 1j * rng.normal(size=2)
        f = State.pure(M2M2, 0, v)
        g = State.pure(M2M2, 0, w)
        if dual_norm_distance(f, g) < 2.0 - 1e-9:
            assert equivalence_check(M2M2, f, g).equivalent
    f = State.pure(M2M2, 0, [1.0, 0.0])
    g = State.pure(M2M2, 1, [0.3, 0.4j])
    assert not equivalence_check(M2M2, f, g).equivalent
    assert abs(dual_norm_distance(f, g) - 2.0) <= 1e-9


def _three_reps(rng):
    reps = []
    for _ in range(3):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        reps.append(gns_construct(M2, State.pure(M2, 0, v)))
    return reps


def test_superselection_operator_examples():
    rng = np.random.default_rng(29)
    reps = _three_reps(rng)[:2]
    t = superselection_operator(reps, [0.0, 1.0])
    gens = oracles.summed_generator_matrices(reps)
    worst = max(float(np.max(np.abs(t @ g - g @ t))) for g in gens)
    assert worst <= 1e-12
    # constant weights give the scalar operator
    s = superselection_operator(reps, [2.5, 2.5])
    assert np.array_equal(s, 2.5 * np.eye(4))


def test_superselection_spectrum_reads_back_exactly():
    rng = np.random.default_rng(30)
    reps = _three_reps(rng)
    t = superselection_operator(reps, [1.0, 2.0, 3.0])
    assert np.linalg.eigvalsh(t).tolist() == [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]


def test_superselection_fixes_embedded_cyclic_vectors():
    rng = np.random.default_rng(31)
    reps = _three_reps(rng)
    weights = [0.5, -1.0, 2.0]
    t = superselection_operator(reps, weights)
    off = 0
    total = sum(r.carrier_dim for r in reps)
    for r, w in zip(reps, weights):
        embedded = np.zeros(total, dtype=complex)
        embedded[off:off + r.carrier_dim] = r.cyclic_vector
        assert np.max(np.abs(t @ embedded - w * embedded)) <= 1e-12
        off += r.carrier_dim


def test_superselection_weight_count_mismatch():
    rng = np.random.default_rng(32)
    reps = _three_reps(rng)
    with pytest.raises(OpalgError):
        superselection_operator(reps, [1.0, 2.0])
