import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opalg import (
    FiniteGroup,
    InvalidStateError,
    NumericalError,
    ShapeMismatchError,
    convolve,
    cyclic_group,
    delta,
    gns_from_group_function,
    irreducible_characters,
    is_positive_definite,
    left_regular_representation,
    orthogonality_check,
    parse_scenario,
    run_scenario,
    symmetric_group,
)
from opalg import groups
from opalg.groups import REP_ENTRY_LIMIT
from oracles import (associativity_failure_by_loop, best_invertible, convolve_by_loop,
                     gns_from_group_function_by_permutations, group_laws_by_loop,
                     intertwiner_space, left_regular_representation_by_loop,
                     reconstruction_by_vdot)

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
S3 = symmetric_group(3)


def test_group_laws():
    for group in (Z2, Z3, S3, cyclic_group(12)):
        e = group.identity
        for g in range(group.order):
            assert group.table[e, g] == g == group.table[g, e]
            assert group.table[g, group.inverse[g]] == e


def test_bad_table_rejected():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [0, 1]])      # no identity column structure
    with pytest.raises(ValueError):
        FiniteGroup([[1, 0], [1, 0]])
    # a loop of order 5 (identity, inverses, Latin square) that is not associative
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    with pytest.raises(ValueError, match="associativity fails"):
        FiniteGroup(loop)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       change=st.sampled_from(["none", "relabel", "entry", "row", "column"]))
def test_identity_and_inverses_equal_the_element_loop(n, seed, change):
    # Z_n relabelled, or with one entry, row or column overwritten: a missing
    # identity, an element with no or two one-sided inverses, or none of these
    rng = np.random.default_rng(seed)
    table = cyclic_group(n).table.copy()
    if change == "relabel":
        perm = rng.permutation(n)
        table = np.argsort(perm)[table[perm][:, perm]]
    elif change != "none":
        i, j = rng.integers(n, size=2)
        value = rng.integers(n)
        if change == "entry":
            table[i, j] = value
        elif change == "row":
            table[i] = value
        else:
            table[:, j] = value
    want = group_laws_by_loop(table)
    try:
        group = FiniteGroup(table)
        got = group.identity, group.inverse
    except ValueError as exc:
        got = str(exc)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want or (isinstance(got, str) and got.startswith("associativity"))
    else:
        assert got[0] == want[0] and np.array_equal(got[1], want[1])
        assert got[1].dtype == want[1].dtype


@settings(max_examples=60, deadline=None)
@given(order=st.one_of(st.integers(1, 70), st.just("s3")), seed=st.integers(0, 2**32 - 1))
@example(order=32, seed=0)
@example(order=1, seed=2)    # a broadcast f1 rounded the one product otherwise
def test_convolution_equals_the_element_loop(order, seed):
    # each row of the gather sums as the loop's contiguous vector, bit for bit
    group = S3 if order == "s3" else cyclic_group(order)
    rng = np.random.default_rng(seed)
    f1, f2 = rng.normal(size=(2, group.order)) + 1j * rng.normal(size=(2, group.order))
    assert np.array_equal(convolve(group, f1, f2), convolve_by_loop(group, f1, f2))


@settings(max_examples=60, deadline=None)
@given(order=st.one_of(st.integers(2, 40), st.just("s3")),
       kind=st.sampled_from(["delta", "character", "vectors"]), seed=st.integers(0, 2**32 - 1))
@example(order=32, kind="vectors", seed=0)
def test_reconstruction_equals_the_vdot_loop(order, kind, seed):
    group = S3 if order == "s3" else cyclic_group(order)
    rep = gns_from_group_function(group, _positive_definite(group, kind, seed))
    assert np.array_equal(rep.reconstruction(), reconstruction_by_vdot(rep))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 32), st.lists(st.tuples(st.integers(1, 31), st.integers(1, 31),
                                              st.integers(1, 31)), max_size=3))
def test_associativity_check_matches_triple_loop(n, swaps):
    # swapping two non-identity entries of a non-identity row keeps the identity
    # and the inverses, so only the associativity check can reject the table
    table = cyclic_group(n).table.copy()
    for row, i, j in swaps:
        row, i, j = row % n or 1, i % n or 1, j % n or 1
        if table[row, i] != 0 and table[row, j] != 0:
            table[row, [i, j]] = table[row, [j, i]]
    expected = associativity_failure_by_loop(table)
    if expected is None:
        assert FiniteGroup(table).order == n
    else:
        with pytest.raises(ValueError) as err:
            FiniteGroup(table)
        assert str(err.value) == expected


def test_delta_is_convolution_unit():
    rng = np.random.default_rng(51)
    f = rng.normal(size=6) + 1j * rng.normal(size=6)
    unit = delta(S3, S3.identity)
    assert np.max(np.abs(convolve(S3, unit, f) - f)) <= 1e-14
    assert np.max(np.abs(convolve(S3, f, unit) - f)) <= 1e-14


def test_dirac_convolution_composes_group_law():
    for a in range(S3.order):
        for b in range(S3.order):
            conv = convolve(S3, delta(S3, a), delta(S3, b))
            assert np.max(np.abs(conv - delta(S3, S3.table[a, b]))) == 0.0


def test_convolution_on_z2_example():
    f1 = np.array([1.0, 1.0], dtype=complex)
    f2 = np.array([1.0, -1.0], dtype=complex)
    assert np.max(np.abs(convolve(Z2, f1, f2))) == 0.0


def test_function_length_mismatch_rejected():
    from opalg import ShapeMismatchError

    with pytest.raises(ShapeMismatchError):
        convolve(Z3, np.ones(2), np.ones(3))
    with pytest.raises(ShapeMismatchError):
        gns_from_group_function(Z2, np.ones(3))


def test_convolution_associative_random():
    rng = np.random.default_rng(52)
    for _ in range(10):
        f, g, h = (rng.normal(size=6) + 1j * rng.normal(size=6) for _ in range(3))
        lhs = convolve(S3, convolve(S3, f, g), h)
        rhs = convolve(S3, f, convolve(S3, g, h))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_positive_definite_examples():
    assert is_positive_definite(Z3, np.ones(3))
    assert is_positive_definite(Z3, delta(Z3, 0))
    omega = np.exp(2j * np.pi * np.arange(3) / 3)
    assert is_positive_definite(Z3, omega)
    # circulant oracle: eigenvalues of the kernel of omega^k are {3, 0, 0}
    from opalg.groups import pd_kernel
    lam = np.linalg.eigvalsh(pd_kernel(Z3, omega))
    assert np.allclose(sorted(lam.real), [0.0, 0.0, 3.0], atol=1e-12)
    # a Dirac mass off the identity is not positive-definite
    assert not is_positive_definite(Z2, delta(Z2, 1))


def test_gns_from_delta_is_regular_representation():
    rep = gns_from_group_function(Z2, delta(Z2, 0))
    assert rep.carrier_dim == 2
    assert np.max(np.abs(rep.reconstruction() - delta(Z2, 0))) <= 1e-12


def test_gns_one_dimensional_characters_of_z2():
    trivial = gns_from_group_function(Z2, np.ones(2))
    assert trivial.carrier_dim == 1
    assert trivial.matrices[1][0, 0] == pytest.approx(1.0, abs=1e-12)
    sign = gns_from_group_function(Z2, np.array([1.0, -1.0]))
    assert sign.carrier_dim == 1
    assert sign.matrices[1][0, 0] == pytest.approx(-1.0, abs=1e-12)


def test_gns_rejects_non_positive_definite():
    with pytest.raises(InvalidStateError):
        gns_from_group_function(Z2, delta(Z2, 1))


def test_gns_representation_is_unitary_homomorphism():
    rng = np.random.default_rng(54)
    # random positive-definite function from a vector form of the regular rep
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    reg = left_regular_representation(S3)
    psi = np.array([np.vdot(v, m @ v) for m in reg.matrices])
    assert is_positive_definite(S3, psi)
    rep = gns_from_group_function(S3, psi)
    d = rep.carrier_dim
    for g in range(S3.order):
        assert np.max(np.abs(rep.matrices[g] @ rep.matrices[g].conj().T - np.eye(d))) <= 1e-12
        for h in range(S3.order):
            prod = rep.matrices[g] @ rep.matrices[h]
            assert np.max(np.abs(prod - rep.matrices[S3.table[g, h]])) <= 1e-12
    assert np.max(np.abs(rep.reconstruction() - psi)) <= 1e-9


def test_pd_bound_by_identity_value():
    rng = np.random.default_rng(55)
    reg = left_regular_representation(S3)
    for _ in range(20):
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        psi = np.array([np.vdot(v, m @ v) for m in reg.matrices])
        assert np.all(np.abs(psi) <= psi[S3.identity].real + 1e-12)


def test_orthogonality_examples():
    trivial = gns_from_group_function(Z2, np.ones(2))
    report = orthogonality_check(trivial, gns_from_group_function(Z2, np.array([1.0, -1.0])))
    assert abs(report.inner_sum) == 0.0
    assert report.convolution_max == 0.0
    same = orthogonality_check(trivial, trivial)
    assert same.inner_sum == pytest.approx(2.0, abs=1e-14)
    omega = np.exp(2j * np.pi * np.arange(3) / 3)
    cross = orthogonality_check(gns_from_group_function(Z3, np.ones(3)),
                                gns_from_group_function(Z3, omega))
    assert abs(cross.inner_sum) <= 1e-12


def test_orthogonality_check_refuses_representations_of_different_groups():
    with pytest.raises(ShapeMismatchError):
        orthogonality_check(gns_from_group_function(Z2, np.ones(2)),
                            gns_from_group_function(Z3, np.ones(3)))


def test_character_tables():
    for group, count in ((Z2, 2), (Z3, 3), (S3, 3)):
        chars = irreducible_characters(group)
        assert len(chars) == count
        for psi in chars:
            assert is_positive_definite(group, psi)
        for i in range(count):
            for j in range(i + 1, count):
                report = orthogonality_check(gns_from_group_function(group, chars[i]),
                                             gns_from_group_function(group, chars[j]))
                assert abs(report.inner_sum) <= 1e-12
                assert report.convolution_max <= 1e-12


def test_character_reconstruction():
    for group in (Z2, Z3, S3):
        for psi in irreducible_characters(group):
            rep = gns_from_group_function(group, psi)
            assert np.max(np.abs(rep.reconstruction() - psi)) <= 1e-9


def test_delta_gns_equivalent_to_left_regular():
    for group in (Z2, Z3, S3):
        from_delta = gns_from_group_function(group, delta(group, group.identity))
        direct = left_regular_representation(group)
        assert from_delta.carrier_dim == direct.carrier_dim
        space = intertwiner_space(from_delta.matrices, direct.matrices)
        gamma, ratio = best_invertible(space)
        assert gamma is not None
        gamma_inv = np.linalg.inv(gamma)
        worst = max(
            float(np.max(np.abs(gamma @ p @ gamma_inv - q)))
            for p, q in zip(from_delta.matrices, direct.matrices)
        )
        assert worst <= 1e-8


def _positive_definite(group, kind, seed):
    """delta_e (full rank), one character (rank one), or a sum of vector forms of the
    left-regular representation; on Z_n the vectors leave out a random set of
    Fourier modes, so the rank is the number of modes kept."""
    rng = np.random.default_rng(seed)
    n = group.order
    if kind == "delta":
        return delta(group, group.identity)
    if kind == "character":
        chars = irreducible_characters(group)
        return chars[rng.integers(len(chars))]
    regular = left_regular_representation_by_loop(group).matrices
    psi = np.zeros(n, dtype=complex)
    for _ in range(rng.integers(1, 4)):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        if np.array_equal(group.table, cyclic_group(n).table):
            modes = np.fft.fft(v) * (rng.random(n) < 0.5)
            v = np.fft.ifft(modes)
        psi += np.array([np.vdot(v, m @ v) for m in regular])
    return psi


@settings(max_examples=60, deadline=None)
@given(order=st.one_of(st.integers(2, 64), st.just("s3")),
       kind=st.sampled_from(["delta", "character", "vectors"]), seed=st.integers(0, 2**32 - 1))
@example(order=64, kind="delta", seed=0)        # full rank 64
@example(order=64, kind="vectors", seed=3)      # rank deficient
@example(order="s3", kind="character", seed=2)  # the standard character, rank 4
def test_gathered_translations_equal_the_permutation_products(order, kind, seed):
    group = S3 if order == "s3" else cyclic_group(order)
    psi = _positive_definite(group, kind, seed)
    assert is_positive_definite(group, psi)
    rep = gns_from_group_function(group, psi)
    ref = gns_from_group_function_by_permutations(group, psi)
    assert rep.gram_rank == ref.gram_rank
    assert len(rep.matrices) == len(ref.matrices) == group.order
    assert all(np.array_equal(a, b) for a, b in zip(rep.matrices, ref.matrices))
    assert np.array_equal(rep.cyclic_vector, ref.cyclic_vector)
    assert np.array_equal(rep.reconstruction(), ref.reconstruction())
    # the stacked unitarity defect is the loop's, bit for bit (0 on a zero carrier)
    eye = np.eye(rep.carrier_dim)
    assert rep.unitarity_defect() == max(float(np.max(np.abs(m @ m.conj().T - eye), initial=0.0))
                                         for m in ref.matrices)


@pytest.mark.parametrize("limit", [1, 100, 1 << 20])
def test_translations_gathered_in_runs_equal_the_permutation_products(limit, monkeypatch):
    # one stacked product per run of GATHER_ENTRY_LIMIT // (rank * order) elements:
    # one element at a time, runs of a few (and a short last run), or all at once
    monkeypatch.setattr(groups, "GATHER_ENTRY_LIMIT", limit)
    for group, kind, seed in ((cyclic_group(12), "vectors", 1), (S3, "character", 2),
                              (cyclic_group(9), "delta", 0)):
        psi = _positive_definite(group, kind, seed)
        rep = gns_from_group_function(group, psi)
        ref = gns_from_group_function_by_permutations(group, psi)
        assert rep.matrices.shape == (group.order, rep.carrier_dim, rep.carrier_dim)
        assert np.array_equal(rep.matrices, np.stack(ref.matrices))


def test_the_zero_function_gives_the_zero_representation():
    # psi = 0 is positive-definite with a Gram of rank 0; the unitarity loop took the
    # max of empty arrays and ended the run in a ValueError traceback
    rep = gns_from_group_function(Z3, np.zeros(3))
    assert rep.carrier_dim == 0 and rep.matrices.shape == (3, 0, 0)
    assert rep.unitarity_defect() == 0.0
    report = run_scenario(parse_scenario("kind: group\ngroup: {name: z3}\nfunctions:\n"
                                         "  - [[0, 0], [0, 0], [0, 0]]\n"))
    assert "function[0].unitarity_defect = +0.000000000000e+00 [tol 1.0e-12 default, " \
           "computed] pass" in report.lines


@pytest.mark.parametrize("group", [cyclic_group(n) for n in (2, 5, 12, 64)] + [S3])
def test_left_regular_matrices_equal_the_entry_loop(group):
    rep = left_regular_representation(group)
    ref = left_regular_representation_by_loop(group)
    assert all(np.array_equal(a, b) for a, b in zip(rep.matrices, ref.matrices))
    assert np.array_equal(rep.cyclic_vector, ref.cyclic_vector)
    assert rep.gram_rank == ref.gram_rank == group.order


def test_group_representation_past_the_entry_limit_is_refused_before_any_translation():
    # delta_e on z512 has rank 512: 512^3 = 2^27 entries (2 GiB) against 2^24;
    # the positive-definiteness test and the Gram quotient stay under 32 MiB
    z512 = cyclic_group(512)
    tracemalloc.start()
    try:
        with pytest.raises(NumericalError, match="order 512 and rank 512 holds 134217728"):
            gns_from_group_function(z512, delta(z512, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20
    assert 256**3 == REP_ENTRY_LIMIT < 257**3
    with pytest.raises(NumericalError, match="order 257 and rank 257"):
        left_regular_representation(cyclic_group(257))


def test_characters_on_the_largest_built_in_group_still_run():
    z1024 = cyclic_group(1024)
    psi = np.exp(2j * np.pi * 5 * np.arange(1024) / 1024)
    rep = gns_from_group_function(z1024, psi)
    assert rep.carrier_dim == 1
    assert np.max(np.abs(rep.reconstruction() - psi)) <= 1e-9
