"""The closed-form GNS construction and its intertwining kernel against generic oracles."""

import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from opalg import gns
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


@settings(max_examples=60, deadline=None)
@given(shape=shapes(), seed=st.integers(0, 2**32 - 1),
       partner=st.sampled_from(["equal", "same_ranks", "other_ranks"]))
# equal kernels and carrier dimensions, different multiplicities
@example(shape=([2, 2], [2, 1], [1, 2]), seed=0, partner="other_ranks")
def test_closed_form_agrees_with_gram_quotient_oracle(shape, seed, partner):
    blocks, ranks, other_ranks = shape
    rng = np.random.default_rng(seed)
    alg = StarAlgebra(blocks)
    f = _state(alg, rng, ranks)

    rep = gns_construct(alg, f)
    oracle = oracles.gram_gns(alg, f)
    assert rep.carrier_dim == oracle.carrier_dim == _carrier(blocks, ranks)
    assert rep.gram_rank == oracle.gram_rank
    assert len(commutant_basis(rep)) == len(oracles.commutant(oracle.generator_matrices))
    assert rep.commutant_dim == len(commutant_basis(rep))
    assert rep.kernel_labels == oracle.kernel_labels
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


def _unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _stationary(alg, rng, ranks):
    """A unitary u and a state of the given rank vector that u leaves fixed."""
    us, dens = [], []
    for n, r in zip(alg.blocks, ranks):
        v = _unitary(rng, n)
        us.append((v * np.exp(1j * rng.uniform(0, 2 * np.pi, n))[None, :]) @ v.conj().T)
        lam = np.zeros(n)
        lam[:r] = rng.uniform(0.2, 1.0, r)
        dens.append((v * lam[None, :]) @ v.conj().T)
    total = sum(np.trace(d).real for d in dens)
    return alg.element(us), State(alg, [d / total for d in dens])


@settings(max_examples=80, deadline=None)
@given(shape=shapes(), seed=st.integers(0, 2**32 - 1),
       case=st.sampled_from(["identity", "implementer", "perturbed", "rectangular", "embedding"]),
       batch=st.sampled_from([gns.BATCH_ENTRIES, 1, 300]))
# two populated blocks with different source and target offsets in the second
@example(shape=([2, 3], [1, 2], [2, 1]), seed=1, case="rectangular", batch=1)
@example(shape=([2, 3], [1, 2], [2, 1]), seed=1, case="embedding", batch=1)
@example(shape=([2, 3], [2, 1], [2, 1]), seed=2, case="implementer", batch=gns.BATCH_ENTRIES)
def test_intertwining_kernel_agrees_with_per_unit_oracle(shape, seed, case, batch):
    blocks, ranks, other_ranks = shape
    rng = np.random.default_rng(seed)
    alg = StarAlgebra(blocks)
    u, f = _stationary(alg, rng, ranks)
    rep_src = gns_construct(alg, f)
    if case == "identity":
        # W = I between two representations with the same rank vector
        rep_dst, u = gns_construct(alg, _state(alg, rng, ranks)), None
        w = np.eye(rep_src.carrier_dim, dtype=complex)
    elif case == "rectangular":
        rep_dst = gns_construct(alg, _state(alg, rng, other_ranks))
        w = (rng.normal(size=(rep_dst.carrier_dim, rep_src.carrier_dim))
             + 1j * rng.normal(size=(rep_dst.carrier_dim, rep_src.carrier_dim)))
        # growing column norms put the largest terms in the last source block
        w *= 1.0 + np.arange(rep_src.carrier_dim)[None, :]
    elif case == "embedding":
        # 2 (u_b (x) J_b), J_b the leading part of the identity C^{r_src} -> C^{r_dst}: the
        # two terms overlap only on shared copies, so a misplaced slab or copy changes the max
        rep_dst = gns_construct(alg, _state(alg, rng, other_ranks))
        w = 2 * block_diag([np.kron(m, np.eye(r_dst, r_src)) for m, r_dst, r_src
                            in zip(u.mats, rep_dst.ranks, rep_src.ranks)])
    else:
        rep_dst = rep_src
        result = unitary_implementer(f, InnerAutomorphism(u))
        w = result.unitary
        assert np.max(np.abs(w.conj().T @ w - np.eye(w.shape[0]))) <= 1e-12
        assert result.intertwining_residual <= 1e-12
        if case == "perturbed":
            w = w + 0.5 * rng.normal(size=w.shape)

    saved, gns.BATCH_ENTRIES = gns.BATCH_ENTRIES, batch   # 1: one D x D term per product
    try:
        got = intertwining_residual(w, rep_src, rep_dst, u)
    finally:
        gns.BATCH_ENTRIES = saved
    want = oracles.intertwining_residual_by_units(w, rep_src, rep_dst, u)
    # float64 round-off of sums of at most four products W_xy conj(W_zy)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(w))) ** 2)
    assert abs(got - want) <= tol, (got, want)
    if case == "identity":
        assert got == 0.0
    if case == "perturbed" and rep_src.carrier_dim > 1:
        # typically of order one: the perturbed W is far from unitary
        assert want > 1e-6


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
    # a faithful M12 pair has D = 144; a buffer of all n_b terms of one row of
    # matrix units would hold 12 D x D complex matrices (4 MB) plus their abs
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
