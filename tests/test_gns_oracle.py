"""The closed-form GNS construction against the generic Gram-quotient oracle."""

import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from opalg import StarAlgebra, State, commutant_basis, equivalence_check, gns_construct


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
