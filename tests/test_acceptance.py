"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines.
"""

import itertools
import time

import numpy as np
import pytest

from opalg import (
    AutomorphismGroup,
    CcrSpace,
    ConstantEigenvalues,
    InnerAutomorphism,
    MassShellGrid,
    PowerTail,
    PowerTailEigenvalues,
    QubitConfig,
    StarAlgebra,
    State,
    build_fock_operators,
    commutator_identity_check,
    cyclic_group,
    delta,
    dual_norm_distance,
    equivalence_check,
    equivalence_verdict,
    evaluate_state,
    gaussian_equivalence_verdict,
    gns_construct,
    gns_from_group_function,
    klein_gordon_residuals,
    mass_kernel_witness,
    moment_oracle,
    orthogonality_check,
    pair_partitions,
    pauli_jordan,
    purity_check,
    pushforwards,
    quasi_invariance_factor,
    stabilizer_orbit,
    symmetric_group,
    unitary_implementer,
    wick_moment,
)
from opalg.symmetry import STATIONARY_TOL
from oracles import (best_invertible, intertwiner_space, irreducible_characters,
                     left_regular_representation, one_parameter_flow, stationarity_check,
                     summed_generator_matrices, superselection_operator)


def _verdict(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


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


def test_gns_reconstruction():
    rng = np.random.default_rng(101)
    alg = StarAlgebra([3, 2])
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        f = _random_state(alg, rng)
        rep = gns_construct(alg, f)
        th = rep.cyclic_vector
        for _ in range(100):
            a = alg.random_element(rng)
            recon = np.vdot(th, rep.represent(a) @ th)
            worst = max(worst, abs(recon - evaluate_state(f, a)))
    elapsed = time.perf_counter() - start
    _verdict(
        "GNS reconstruction (50 states on M3+M2, 100 elements, <= 1e-9, <= 5 s)",
        worst <= 1e-9 and elapsed <= 5.0,
        f"residual {worst:.2e}, {elapsed:.2f} s",
    )


def test_purity_oracle_equivalence():
    alg = StarAlgebra([2, 2])
    rng = np.random.default_rng(102)

    def oracle(f):
        ranks = [int(np.sum(np.linalg.eigvalsh(d) > 1e-9)) for d in f.densities]
        return "pure" if sum(ranks) == 1 else "mixed"

    ok = True
    # exhaustive rank patterns for blocks [2, 2]
    for ranks in itertools.product(range(3), repeat=2):
        if sum(ranks) == 0:
            continue
        f = _random_state(alg, rng, ranks=list(ranks))
        ok = ok and purity_check(alg, f) == oracle(f)
    # 200 random states: half unconstrained, half with random rank patterns
    for k in range(200):
        if k % 2:
            ranks = [int(rng.integers(0, 3)) for _ in alg.blocks]
            if sum(ranks) == 0:
                ranks[0] = 1
            f = _random_state(alg, rng, ranks=ranks)
        else:
            f = _random_state(alg, rng)
        ok = ok and purity_check(alg, f) == oracle(f)
    _verdict("Purity oracle equivalence (exhaustive [2,2] patterns + 200 random)", ok)


def test_equivalence_trichotomy():
    alg = StarAlgebra([2, 2])
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(10):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        w = rng.normal(size=2) + 1j * rng.normal(size=2)
        block = int(rng.integers(0, 2))
        f = State.pure(alg, block, v)
        g = State.pure(alg, block, w)
        report = equivalence_check(alg, f, g)
        ok = ok and report.equivalent and report.intertwiner_residual <= 1e-8
        b, b_back = report.transition
        for k in range(alg.dim):
            e = alg.basis_element(k)
            ok = ok and abs(
                evaluate_state(g, e) - evaluate_state(f, b.star * e * b)) <= 1e-8
            ok = ok and abs(
                evaluate_state(f, e) - evaluate_state(g, b_back.star * e * b_back)) <= 1e-8
    for _ in range(10):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        w = rng.normal(size=2) + 1j * rng.normal(size=2)
        f = State.pure(alg, 0, v)
        g = State.pure(alg, 1, w)
        report = equivalence_check(alg, f, g)
        dist = dual_norm_distance(f, g)
        ok = ok and report.verdict == "inequivalent" and abs(dist - 2.0) <= 1e-9
    _verdict(
        "Equivalence trichotomy on M2+M2 (intertwiner <= 1e-8, cross-block distance = 2 +- 1e-9)",
        ok,
    )


def test_superselection():
    rng = np.random.default_rng(104)
    alg = StarAlgebra([2])
    reps = [gns_construct(alg, State.pure(alg, 0, rng.normal(size=2) + 1j * rng.normal(size=2)))
            for _ in range(3)]
    weights = [1.0, 2.0, 3.0]
    t = superselection_operator(reps, weights)
    gens = summed_generator_matrices(reps)
    comm = max(float(np.max(np.abs(t @ g - g @ t))) for g in gens)
    spectrum_ok = np.linalg.eigvalsh(t).tolist() == [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
    _verdict(
        "Superselection (commutation <= 1e-12, spectrum exact)",
        comm <= 1e-12 and spectrum_ok,
        f"commutator {comm:.2e}",
    )


def test_qubit_criterion():
    e1 = np.array([1.0, 0.0])
    base = QubitConfig(e1)
    finite = QubitConfig(e1, overrides={2: np.array([0.0, 1.0]), 7: np.array([0.6, 0.8])})
    start = time.perf_counter()
    v_finite = equivalence_verdict(base, finite)
    v_p1 = equivalence_verdict(QubitConfig(tail=PowerTail(1.0, 1.0)), base)
    v_half = equivalence_verdict(QubitConfig(tail=PowerTail(1.0, 0.5)), base)
    elapsed = time.perf_counter() - start
    ok = (
        v_finite.verdict == "convergent"
        and v_p1.verdict == "convergent"
        and v_half.verdict == "divergent"
        and all(v.justification for v in (v_finite, v_p1, v_half))
        and elapsed <= 1.0
    )
    _verdict(
        "Qubit criterion (finite -> equivalent, p=1 -> equivalent, p=1/2 -> inequivalent, <= 1 s)",
        ok,
        f"{elapsed:.3f} s for three 10^4-site windows",
    )


def test_group_gns():
    ok = True
    worst_recon = 0.0
    worst_orth = 0.0
    for group in (cyclic_group(2), cyclic_group(3), symmetric_group(3)):
        chars = irreducible_characters(group)
        for psi in chars:
            rep = gns_from_group_function(group, psi)
            worst_recon = max(worst_recon, float(np.max(np.abs(rep.reconstruction() - psi))))
        for i in range(len(chars)):
            for j in range(i + 1, len(chars)):
                report = orthogonality_check(gns_from_group_function(group, chars[i]),
                                             gns_from_group_function(group, chars[j]))
                worst_orth = max(worst_orth, abs(report.inner_sum), report.convolution_max)
        regular = left_regular_representation(group)
        from_delta = gns_from_group_function(group, delta(group, group.identity))
        gamma, _ = best_invertible(intertwiner_space(from_delta.matrices, regular.matrices))
        ok = ok and gamma is not None
        if gamma is not None:
            gamma_inv = np.linalg.inv(gamma)
            resid = max(
                float(np.max(np.abs(gamma @ p @ gamma_inv - q)))
                for p, q in zip(from_delta.matrices, regular.matrices))
            ok = ok and resid <= 1e-8
    ok = ok and worst_recon <= 1e-9 and worst_orth <= 1e-12
    _verdict(
        "Group GNS (Z2, Z3, S3: reconstruction <= 1e-9, orthogonality <= 1e-12, "
        "delta_e ~ regular)",
        ok,
        f"reconstruction {worst_recon:.2e}, orthogonality {worst_orth:.2e}",
    )


def test_wick_cross_validation():
    rng = np.random.default_rng(107)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        a = rng.normal(size=(n, n))
        space = CcrSpace(a @ a.T + n * np.eye(n), np.eye(n) + 0.4 * rng.normal(size=(n, n)))
        for m in (2, 4, 6):
            args = [rng.normal(size=n) for _ in range(m)]
            wick = wick_moment(space, args)
            oracle = moment_oracle(space, args)
            worst = max(worst, abs(wick - oracle) / max(abs(wick), 1e-300))
    counts_ok = all(
        sum(1 for _ in pair_partitions(m)) == expected
        for m, expected in ((2, 1), (4, 3), (6, 15)))
    unit = CcrSpace(np.eye(1), np.eye(1))
    q = np.array([1.0])
    counts_ok = counts_ok and all(
        wick_moment(unit, [q] * m) == pytest.approx(float(expected), rel=1e-12)
        for m, expected in ((2, 1), (4, 3), (6, 15)))
    elapsed = time.perf_counter() - start
    _verdict(
        "Wick cross-validation (50 random spaces, m <= 6, <= 1e-6 relative, "
        "pairing count (m-1)!!, <= 10 s)",
        worst <= 1e-6 and counts_ok and elapsed <= 10.0,
        f"worst relative {worst:.2e}, {elapsed:.2f} s",
    )


def test_ccr_and_fock():
    rng = np.random.default_rng(108)
    space = CcrSpace(np.eye(3), np.eye(3) + 0.3 * rng.normal(size=(3, 3)))
    fock = build_fock_operators(space, 6)
    prot = fock.protected_indices()
    comm_worst = 0.0
    for _ in range(10):
        q = rng.normal(size=3)
        qp = rng.normal(size=3)
        comm = fock.a_minus(q) @ fock.a_plus(qp) - fock.a_plus(qp) @ fock.a_minus(q)
        defect = comm - space.inner(q, qp) * np.eye(fock.dim)
        comm_worst = max(comm_worst, float(np.max(np.abs(defect[np.ix_(prot, prot)]))))
    vac = fock.vacuum()
    annihilation = max(
        float(np.max(np.abs(fock.a_minus(e) @ vac))) for e in np.eye(3))
    cocycle_worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        a = rng.normal(size=(n, n))
        sp = CcrSpace(a @ a.T + n * np.eye(n), np.eye(n) + 0.4 * rng.normal(size=(n, n)))
        q, qp, u = (rng.normal(size=n) for _ in range(3))
        lhs = quasi_invariance_factor(sp, q + qp, u)
        rhs = (quasi_invariance_factor(sp, q, u)
               * quasi_invariance_factor(sp, qp, u + sp.gram_image(q)))
        cocycle_worst = max(cocycle_worst, abs(lhs - rhs) / abs(lhs))
    fock_space = CcrSpace(np.eye(3), np.sqrt(2.0) * np.eye(3))
    second_worst = 0.0
    for _ in range(20):
        q = rng.normal(size=3)
        second_worst = max(second_worst, abs(
            moment_oracle(fock_space, [q, q]) - 0.5 * fock_space.inner(q, q)))
    # commutator is exact up to sqrt(k) round-off; no truncation leakage
    ok = (
        comm_worst <= 1e-13
        and annihilation == 0.0
        and cocycle_worst <= 1e-10
        and second_worst <= 1e-8
    )
    _verdict(
        "CCR and Fock (protected commutator exact, vacuum annihilated exactly, "
        "cocycle <= 1e-10, Fock second moment <= 1e-8)",
        ok,
        f"commutator {comm_worst:.2e}, cocycle {cocycle_worst:.2e}, "
        f"second moment {second_worst:.2e}",
    )


def test_gaussian_equivalence_verdicts():
    flat = gaussian_equivalence_verdict(ConstantEigenvalues(2.0))
    tail = gaussian_equivalence_verdict(PowerTailEigenvalues(1.0, 2.0))
    scaled = gaussian_equivalence_verdict(ConstantEigenvalues(2.0 * 1.4**2))
    ok = (
        flat.verdict == "convergent"
        and tail.verdict == "convergent"
        and scaled.verdict == "divergent"
    )
    _verdict(
        "Gaussian equivalence verdicts (s=2 and s=2+k^-2 equivalent, s=2c^2 inequivalent)",
        ok,
    )


def test_free_field():
    rng = np.random.default_rng(110)
    start = time.perf_counter()
    grid = MassShellGrid(1.0, cutoff=6.0, points=33)
    comm_worst = 0.0
    for _ in range(20):
        x = rng.normal(size=4)
        y = rng.normal(size=4)
        comm_worst = max(comm_worst, commutator_identity_check(grid, x, y))
    equal_time = pauli_jordan(grid, (0.0, 0.7, -0.2, 0.4))
    x_ref = np.array([0.37, 0.21, -0.45, 0.11])
    coarse, fine = klein_gordon_residuals(grid, x_ref, (0.08, 0.04))
    ratio = coarse / fine
    witness = mass_kernel_witness(grid, 2.0)
    elapsed = time.perf_counter() - start
    ok = (
        comm_worst <= 1e-10
        and equal_time == 0.0
        and 3.2 <= ratio <= 4.8
        and witness.verdict == "inequivalent"
        and witness.separation_ratio >= 1e4
        and elapsed <= 30.0
    )
    _verdict(
        "Free field (commutator <= 1e-10 on 20 pairs, equal-time D = 0 exact, "
        "KG ratio in [3.2, 4.8], witness ratio >= 1e4, <= 30 s)",
        ok,
        f"commutator {comm_worst:.2e}, ratio {ratio:.2f}, "
        f"witness {witness.separation_ratio:.2e}, {elapsed:.1f} s",
    )


def test_symmetry():
    alg = StarAlgebra([2])
    paulis = [
        np.eye(2, dtype=complex),
        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        np.array([[0.0, -1.0j], [1.0j, 0.0]]),
        np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    ]
    group = AutomorphismGroup([InnerAutomorphism(alg.element([p])) for p in paulis])
    states = [
        State(alg, [np.diag([1.0, 0.0])]),
        State.tracial(alg),
        State(alg, [np.diag([0.7, 0.3])]),
        State.pure(alg, 0, [1.0, 1.0]),
        State.pure(alg, 0, [1.0, -1.0j]),
    ]
    iff_ok = True
    law_ok = True
    for f in states:
        for rho in group.elements:
            stationary = stationarity_check(f, rho, STATIONARY_TOL)
            [result] = unitary_implementer(gns_construct(f.algebra, f), [rho])
            iff_ok = iff_ok and stationary == (result.unitary is not None)
        report = stabilizer_orbit(*pushforwards(f, group.elements))
        law_ok = law_ok and report.orbit_size * report.stabilizer_size == len(group)
    rng = np.random.default_rng(111)
    m3 = StarAlgebra([3])
    halving_ok = True
    for _ in range(5):
        b = m3.random_hermitian(rng)
        a = m3.random_element(rng)
        bracket = -1j * (b * a - a * b)

        def defect(h):
            diff = (1.0 / h) * (one_parameter_flow(b, h, a) - a) - bracket
            return max(np.max(np.abs(m)) for m in diff.mats)

        halving_ok = halving_ok and defect(5e-4) <= 0.6 * defect(1e-3)
    _verdict(
        "Symmetry (stationarity iff implementer on the Pauli suite, orbit law exact, "
        "flow residual halves with h)",
        iff_ok and law_ok and halving_ok,
    )


def test_cli_determinism(tmp_path):
    from opalg.cli import main

    outputs = []
    for run in range(3):
        out = tmp_path / f"run{run}"
        assert main(["demo", "all", "--jobs", "1", "--out", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    parallel = tmp_path / "jobs4"
    assert main(["demo", "all", "--jobs", "4", "--out", str(parallel)]) == 0
    outputs.append({p.name: p.read_bytes() for p in sorted(parallel.iterdir())})
    ok = all(outputs[0] == other for other in outputs[1:]) and len(outputs[0]) == 7
    _verdict(
        "CLI determinism (byte-identical demo reports over 3 runs and jobs 1 vs 4)",
        ok,
    )
