"""The closed-form GNS construction and its factored certificate against generic oracles."""

import ast
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import opalg
import oracles
from opalg.linalg import block_diag
from opalg import (
    InnerAutomorphism,
    StarAlgebra,
    State,
    commutant_basis,
    equivalence_check,
    gns_construct,
    intertwining_residual,
    unitary_implementer,
)


def _state(alg, rng, ranks):
    dens = []
    for n, r in zip(alg.blocks, ranks):
        m = rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
        dens.append(m @ m.conj().T)
    total = sum(np.trace(d).real for d in dens)
    return State(alg, [d / total for d in dens])


def _carrier(blocks, ranks):
    return sum(n * r for n, r in zip(blocks, ranks))


@st.composite
def shapes(draw):
    """Blocks plus two nonzero rank vectors, each with carrier dimension <= 12."""
    blocks = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))

    def rank_vector():
        ranks, budget = [], 12
        for n in blocks:
            ranks.append(draw(st.integers(0, min(n, budget // n))))
            budget -= n * ranks[-1]
        if not any(ranks):
            ranks[draw(st.integers(0, len(blocks) - 1))] = 1
        return ranks

    return blocks, rank_vector(), rank_vector()


def _with_small_eigenvalue(f, small):
    """f with its smallest kept eigenvalue moved to ``small`` times its largest, renormalized."""
    spectra = [np.linalg.eigh(d) for d in f.densities]
    kept = [(lam[k], b, k) for b, (lam, _) in enumerate(spectra)
            for k in range(len(lam)) if lam[k] > 1e-6]
    top, (_, b, k) = max(kept)[0], min(kept)
    lam, vec = spectra[b]
    lam[k] = small * top
    dens = list(f.densities)
    dens[b] = (vec * lam[None, :]) @ vec.conj().T
    total = sum(np.trace(d).real for d in dens)
    return State(f.algebra, [d / total for d in dens])


@settings(max_examples=60, deadline=None)
@given(shape=shapes(), seed=st.integers(0, 2**32 - 1),
       partner=st.sampled_from(["equal", "same_ranks", "other_ranks"]), small=st.just(None))
# equal kernels and carrier dimensions, different multiplicities
@example(shape=([2, 2], [2, 1], [1, 2]), seed=0, partner="other_ranks", small=None)
# a kept eigenvalue ``small`` times the largest, between the rank cut (algebra
# dimension * 1e-12, at most 29e-12 here) and 1e-7: a cut moved into that range
# drops it from the closed-form carrier but not from the oracle's
@example(shape=([1, 1], [1, 1], [1, 1]), seed=0, partner="equal", small=1e-8)
@example(shape=([2, 2], [2, 1], [1, 2]), seed=1, partner="equal", small=1e-9)
# ranks (1, 1, 1) though the M2 block's trace is below 1e-9: no block is in the kernel
@example(shape=([4, 3, 2], [1, 1, 1], [1, 1, 0]), seed=2, partner="equal", small=1e-10)
@example(shape=([3], [3], [3]), seed=3, partner="equal", small=1e-8)
@example(shape=([4], [4], [4]), seed=4, partner="equal", small=1e-9)
def test_closed_form_agrees_with_gram_quotient_oracle(shape, seed, partner, small):
    blocks, ranks, other_ranks = shape
    rng = np.random.default_rng(seed)
    alg = StarAlgebra(blocks)
    f = _state(alg, rng, ranks)
    if small is not None:
        f = _with_small_eigenvalue(f, small)

    rep = gns_construct(alg, f)
    oracle = oracles.gram_gns(alg, f)
    assert rep.carrier_dim == oracle.carrier_dim == _carrier(blocks, ranks)
    assert rep.gram_rank == oracle.gram_rank
    assert len(commutant_basis(rep)) == len(oracles.commutant(oracle.generator_matrices))
    assert rep.commutant_dim == len(commutant_basis(rep))
    assert oracles.kernel_labels(rep) == oracle.kernel_labels
    assert rep.vanished_blocks == oracle.vanished_blocks

    # pi is a *-homomorphism and (pi, theta) reproduces f
    a, b = alg.random_element(rng), alg.random_element(rng)
    pa, pb = rep.represent(a), rep.represent(b)
    assert np.max(np.abs(rep.represent(a * b) - pa @ pb)) <= 1e-9
    assert np.max(np.abs(rep.represent(a.star) - pa.conj().T)) <= 1e-9
    theta = rep.cyclic_vector
    assert abs(np.vdot(theta, pa @ theta) - f(a)) <= 1e-9

    g = f if partner == "equal" else _state(
        alg, rng, ranks if partner == "same_ranks" else other_ranks)
    assert equivalence_check(alg, f, g).verdict == oracles.equivalence_verdict(alg, f, g)


def test_a_block_below_the_rank_cut_lies_in_the_kernel():
    # 8e-10 I_30 lies below the rank cut (901e-12 of the largest eigenvalue), so
    # M30 has multiplicity 0 and lies in the kernel, though its trace is 2.4e-8
    alg = StarAlgebra([30, 1])
    f = State(alg, [8e-10 * np.eye(30), np.array([[1 - 2.4e-8]])])
    rep, oracle = gns_construct(alg, f), oracles.gram_gns(alg, f)
    assert rep.ranks == (0, 1)
    assert rep.carrier_dim == oracle.carrier_dim == 1
    assert oracles.kernel_labels(rep) == oracle.kernel_labels
    assert rep.vanished_blocks == oracle.vanished_blocks == (0,)


def _unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _stationary(alg, rng, ranks, flat=False):
    """A unitary u and a state of the given rank vector that u leaves fixed.

    ``flat`` gives each block one eigenvalue on its support, which any unitary
    of the support fixes: u_b then mixes it, and V_b is neither diagonal nor
    symmetric.
    """
    us, dens = [], []
    for n, r in zip(alg.blocks, ranks):
        v = _unitary(rng, n)
        if flat:
            inner = np.eye(n, dtype=complex)
            for part in (slice(0, r), slice(r, n)):
                if part.stop > part.start:
                    inner[part, part] = _unitary(rng, part.stop - part.start)
            us.append(v @ inner @ v.conj().T)
        else:
            us.append((v * np.exp(1j * rng.uniform(0, 2 * np.pi, n))[None, :]) @ v.conj().T)
        lam = np.zeros(n)
        lam[:r] = rng.uniform(0.2, 1.0) if flat else rng.uniform(0.2, 1.0, r)
        dens.append((v * lam[None, :]) @ v.conj().T)
    total = sum(np.trace(d).real for d in dens)
    return alg.element(us), State(alg, [d / total for d in dens])


@settings(max_examples=80, deadline=None)
@given(shape=shapes(), seed=st.integers(0, 2**32 - 1),
       case=st.sampled_from(["identity", "implementer", "scaled", "perturbed"]))
# an empty first block: the whole residual sits in the second one
@example(shape=([2, 3], [0, 2], [0, 2]), seed=1, case="identity")
@example(shape=([2, 3], [0, 2], [0, 2]), seed=1, case="perturbed")
@example(shape=([2, 3], [1, 2], [1, 2]), seed=2, case="scaled")
def test_factored_certificate_agrees_with_per_unit_oracle(shape, seed, case):
    blocks, ranks, _ = shape
    rng = np.random.default_rng(seed)
    alg = StarAlgebra(blocks)
    u, f = _stationary(alg, rng, ranks)
    rep = gns_construct(alg, f)
    if case == "identity":
        u = None
        factors = [(np.eye(n), np.eye(r)) for n, r in zip(blocks, rep.ranks)]
    else:
        # the closed-form implementer of the stationary state: V_b unitary
        factors = [(m, (np.linalg.pinv(t) @ m.conj().T @ t).T) for m, t in zip(u.mats, rep.factors)]
    if case in ("scaled", "perturbed"):
        # V_b no longer unitary (nor normal, for r_b > 1), U_b no longer unitary when scaled
        scale = 1.0 if case == "perturbed" else float(rng.choice([1e-3, 30.0]))
        factors = [(scale * m, v + 0.5 * (rng.normal(size=v.shape) + 1j * rng.normal(size=v.shape)))
                   for m, v in factors]
        u = alg.element([m for m, _ in factors])
    w = block_diag([np.kron(m, v) for m, v in factors])

    got = intertwining_residual(factors)
    want = oracles.intertwining_residual_by_units(w, rep, rep, u)
    # float64 round-off of sums of at most four products W_xy conj(W_zy)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(w))) ** 2)
    assert abs(got - want) <= tol, (got, want)
    if case == "identity":
        assert got == 0.0
    if case in ("scaled", "perturbed"):
        assert want > 1e-6 * float(np.max(np.abs(w))) ** 2


@settings(max_examples=40, deadline=None)
@given(shape=shapes(), seed=st.integers(0, 2**32 - 1), flat=st.booleans())
@example(shape=([3], [2], [2]), seed=3, flat=True)
def test_implementer_certificate_matches_its_dense_unitary(shape, seed, flat):
    blocks, ranks, _ = shape
    rng = np.random.default_rng(seed)
    alg = StarAlgebra(blocks)
    u, f = _stationary(alg, rng, ranks, flat)
    [result] = unitary_implementer(gns_construct(f.algebra, f), [InnerAutomorphism(u)])
    w = result.unitary
    assert np.max(np.abs(w.conj().T @ w - np.eye(w.shape[0]))) <= 1e-12
    rep = gns_construct(alg, f)
    want = oracles.intertwining_residual_by_units(w, rep, rep, u)
    assert want <= 1e-12
    assert abs(result.intertwining_residual - want) <= 1e-12
    # the identity holds for U_b (x) V' with any unitary V'; W theta = theta pins V_b
    assert np.max(np.abs(w @ rep.cyclic_vector - rep.cyclic_vector)) <= 1e-12


def _agrees_with_pinv(got, want, lam) -> bool:
    """max |got - want| <= 1e-13 cond max |want|, cond = sqrt(lam_max / lam_min) the condition
    number of Theta_b: the SVD inside np.linalg.pinv is only accurate to that."""
    cond = math.sqrt(lam[0] / lam[-1]) if lam.size else 1.0
    return np.max(np.abs(got - want), initial=0.0) <= 1e-13 * cond * np.max(np.abs(want), initial=0.0)


@settings(max_examples=60, deadline=None)
@given(shape=shapes(), seed=st.integers(0, 2**32 - 1), small=st.just(None))
# the near-cut examples of test_closed_form_agrees_with_gram_quotient_oracle: a kept
# eigenvalue 1e-10 to 1e-8 of the largest, so cond reaches 1e5
@example(shape=([1, 1], [1, 1], [1, 1]), seed=0, small=1e-8)
@example(shape=([2, 2], [2, 1], [1, 2]), seed=1, small=1e-9)
@example(shape=([4, 3, 2], [1, 1, 1], [1, 1, 0]), seed=2, small=1e-10)
@example(shape=([3], [3], [3]), seed=3, small=1e-8)
@example(shape=([4], [4], [4]), seed=4, small=1e-9)
def test_closed_form_inverses_agree_with_the_pinv_oracle(shape, seed, small):
    blocks, ranks, _ = shape
    rng = np.random.default_rng(seed)
    alg = StarAlgebra(blocks)
    u, f = _stationary(alg, rng, ranks)
    if small is not None:
        f = _with_small_eigenvalue(f, small)    # the same eigenvectors: u still fixes f
    rep = gns_construct(alg, f)
    for inv, t, lam in zip(rep.inverses, rep.factors, rep.eigenvalues):
        assert _agrees_with_pinv(inv, np.linalg.pinv(t), lam)
    [result] = unitary_implementer(rep, [InnerAutomorphism(u)])
    want = oracles.implementer_by_pinv(u.mats, rep.factors)
    for (_, v), ref, lam in zip(result.pairs, want, rep.eigenvalues):
        assert _agrees_with_pinv(v, ref, lam)
    g = _state(alg, rng, ranks)
    rep_g = gns_construct(alg, g)
    report = equivalence_check(alg, f, g)
    if report.verdict == "equal":
        return    # the identity carries f to g
    for (src, dst), b in zip(((rep, rep_g), (rep_g, rep)), report.transition):
        want = oracles.transitions_by_pinv(src.factors, dst.factors)
        for got, ref, lam in zip(b.mats, want, src.eigenvalues):
            assert _agrees_with_pinv(got, ref, lam)


@settings(max_examples=60, deadline=None)
@given(blocks=st.lists(st.integers(1, 4), min_size=1, max_size=3), seed=st.integers(0, 2**32 - 1))
def test_pure_support_vectors_agree_with_the_eigh_oracle(blocks, seed):
    # the intertwiner of two pure states reads each support vector off its GnsRep, the
    # kept eigenvector Theta_b / sqrt(lambda_b); an eigh of the density pinned column by
    # column gives the same unit vector up to rounding
    rng = np.random.default_rng(seed)
    alg = StarAlgebra(blocks)
    b = int(rng.integers(len(blocks)))
    ranks = [int(k == b) for k in range(len(blocks))]
    f, g = _state(alg, rng, ranks), _state(alg, rng, ranks)
    with mock.patch.object(opalg.gns, "two_vector_unitary",
                           wraps=opalg.gns.two_vector_unitary) as spy:
        assert equivalence_check(alg, f, g).unitary is not None
    (vec_f, vec_g), _ = spy.call_args
    for got, state in ((vec_f, f), (vec_g, g)):
        assert np.max(np.abs(got - oracles.support_vector_by_eigh(state.densities[b]))) <= 1e-13


def test_oracle_commutant_of_faithful_m4_stays_small():
    # the full SVD allocated a (dim D^2)^2 = 4096^2 complex U here: 268 MB
    alg = StarAlgebra([4])
    f = _state(alg, np.random.default_rng(5), [4])
    gens = oracles.gram_gns(alg, f).generator_matrices
    tracemalloc.start()
    try:
        basis = oracles.commutant(gens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(basis) == 16
    assert peak < 100 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_equivalence_check_memory_stays_quadratic_in_carrier_dim():
    # a faithful M12 pair has D = 144; no carrier-sized matrix is built
    alg = StarAlgebra([12])
    rng = np.random.default_rng(12)
    f, g = _state(alg, rng, [12]), _state(alg, rng, [12])
    tracemalloc.start()
    try:
        report = equivalence_check(alg, f, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.intertwiner_residual == 0.0
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MB"


def test_equivalence_check_builds_the_identity_intertwiner_only_on_request():
    # a faithful M64 pair has D = 4096: a dense identity on it takes 256 MiB
    alg = StarAlgebra([64])
    rng = np.random.default_rng(64)
    f, g = _state(alg, rng, [64]), _state(alg, rng, [64])
    tracemalloc.start()
    try:
        report = equivalence_check(alg, f, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.verdict == "equivalent" and report.carrier_dims == (4096, 4096)
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.2f} MB"
    m2 = StarAlgebra([2])
    small = equivalence_check(m2, State.tracial(m2), State.tracial(m2))
    assert np.array_equal(small.intertwiner, np.eye(4)) and small.intertwiner.dtype == complex
    m2m2 = StarAlgebra([2, 2])
    apart = equivalence_check(m2m2, State.pure(m2m2, 0, [1.0, 0.0]), State.pure(m2m2, 1, [1.0, 0.0]))
    assert apart.verdict == "inequivalent" and apart.intertwiner is None


def test_oracles_import_nothing_from_the_modules_they_check():
    # gram_gns, the intertwiner solves and intertwining_residual_by_units check
    # opalg.gns and opalg.symmetry, so they must not be built from them
    checked = {"opalg.gns", "opalg.symmetry"}
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name in checked]
        elif isinstance(node, ast.ImportFrom) and node.module in checked:
            found.append(node.module)
        elif isinstance(node, ast.ImportFrom) and node.module == "opalg":
            found += [a.name for a in node.names if f"opalg.{a.name}" in checked
                      or getattr(getattr(opalg, a.name, None), "__module__", None) in checked]
    assert found == []
