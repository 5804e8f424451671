"""Seeded scenario batches for the opalg benchmark, with an independent oracle.

Each workload is a fixed list of scenario *shapes* (kind, block structure,
rank vector, grid sizes).  The seed draws every matrix entry, eigenvalue,
vector and parameter choice inside those shapes, so timings compare across
seeds while the inputs differ.  ``generate(workload, seed)`` is a plain
function of its arguments: the same seed gives byte-identical YAML.

The oracle never calls opalg.  For a state on the direct sum of M_{n_b} with
density ranks r_b the structure theorem gives the GNS carrier dimension
sum n_b r_b, the commutant dimension sum r_b^2 (pure iff it is 1) and the
equivalence verdict: ``equal`` for identical densities, ``equivalent`` iff
the rank vectors match, ``inequivalent`` otherwise.  The other kinds get
their expected lines from the same closed forms the generator built them
with (group characters, orbit sizes of a cyclic symmetry, Fock basis size,
series exponents).  Every ``check`` line of every report must read ``pass``.

Numbers are written with ``%.17e``: it always has a dot and a signed
exponent, so PyYAML's YAML 1.1 resolver reads it as a float, and it
round-trips exactly.  (A plain ``1e-05`` resolves to a *string* under YAML
1.1, and the schema then rejects it with "expected a number, got str".)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("gns-mid", "kinds-small", "numerics-large")


@dataclass
class Case:
    """One generated scenario: its YAML text and the report lines it must contain."""

    name: str
    kind: str
    text: str
    expect: list = field(default_factory=list)
    sweep_n: int = 0          # n when this is a faithful one-block M_n gns case
    cli_only: bool = False    # timed only inside the CLI runs, not scenario by scenario


# ---------------------------------------------------------------------------
# YAML emission


def num(x) -> str:
    return "%.17e" % float(x)


def cnum(z) -> str:
    z = complex(z)
    return f"[{num(z.real)}, {num(z.imag)}]"


def cmat(m) -> str:
    return "[" + ", ".join("[" + ", ".join(cnum(v) for v in row) + "]" for row in m) + "]"


def rvec(v) -> str:
    return "[" + ", ".join(num(x) for x in v) + "]"


def rmat(m) -> str:
    return "[" + ", ".join(rvec(row) for row in m) + "]"


def cvec(v) -> str:
    return "[" + ", ".join(cnum(x) for x in v) + "]"


def line(key, value, provenance="computed") -> str:
    """An ``info`` report line as opalg renders it for non-float values."""
    return f"{key} = {value} [{provenance}]"


# ---------------------------------------------------------------------------
# random matrices with spectra bounded away from 0


def unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :]


def density(rng, n, rank, weight, basis=None):
    """Density of trace ``weight`` and exact rank ``rank``; kept eigenvalues
    lie within a factor 3 of each other."""
    if rank == 0:
        return np.zeros((n, n), dtype=complex)
    q = unitary(rng, n) if basis is None else basis
    lam = np.zeros(n)
    lam[:rank] = rng.uniform(0.5, 1.5, size=rank)
    lam *= weight / lam.sum()
    rho = (q * lam[None, :]) @ q.conj().T
    return 0.5 * (rho + rho.conj().T)


def state_densities(rng, blocks, ranks):
    live = [b for b, r in enumerate(ranks) if r]
    w = rng.uniform(0.5, 1.5, size=len(live))
    w /= w.sum()
    weights = dict(zip(live, w))
    return [density(rng, n, r, weights.get(b, 0.0)) for b, (n, r) in enumerate(zip(blocks, ranks))]


def densities_yaml(dens, indent):
    pad = " " * indent
    return "".join(f"{pad}- {cmat(d)}\n" for d in dens)


def carrier(blocks, ranks):
    return sum(n * r for n, r in zip(blocks, ranks))


def vanished(ranks):
    return [b for b, r in enumerate(ranks) if r == 0]


# ---------------------------------------------------------------------------
# per-kind builders


# gns scenarios from this carrier dimension on spend seconds in the Kronecker
# null-space solve (0.9 s at D = 13, 5-8 s at D = 16); they count in wall_s
# and the per-layer sweep, and the per-scenario timings leave them out
CLI_ONLY_CARRIER_DIM = 13


def gns_case(rng, name, blocks, ranks):
    dens = state_densities(rng, blocks, ranks)
    text = (f"kind: gns\nalgebra: {{blocks: {list(blocks)}}}\nstate:\n  densities:\n"
            + densities_yaml(dens, 4))
    comm = sum(r * r for r in ranks)
    expect = [
        line("carrier_dim", carrier(blocks, ranks)),
        line("gram_rank", carrier(blocks, ranks)),
        line("commutant_dim", comm),
        line("purity", "pure" if comm == 1 else "mixed"),
        line("kernel_block_indices", vanished(ranks)),
    ]
    faithful_single = len(blocks) == 1 and ranks[0] == blocks[0]
    return Case(name, "gns", text, expect, sweep_n=blocks[0] if faithful_single else 0,
                cli_only=carrier(blocks, ranks) >= CLI_ONLY_CARRIER_DIM)


def equiv_case(rng, name, blocks, ranks_f, ranks_g, identical=False):
    dens_f = state_densities(rng, blocks, ranks_f)
    dens_g = dens_f if identical else state_densities(rng, blocks, ranks_g)
    text = (f"kind: equiv\nalgebra: {{blocks: {list(blocks)}}}\nstates:\n"
            f"  - densities:\n{densities_yaml(dens_f, 6)}"
            f"  - densities:\n{densities_yaml(dens_g, 6)}")
    if identical:
        verdict = "equal"
    elif list(ranks_f) == list(ranks_g):
        verdict = "equivalent"
    else:
        verdict = "inequivalent"
    expect = [
        line("verdict", verdict),
        line("kernel_blocks_first", vanished(ranks_f)),
        line("kernel_blocks_second", vanished(ranks_g)),
        line("carrier_dims", [carrier(blocks, ranks_f), carrier(blocks, ranks_g)]),
    ]
    return Case(name, "equiv", text, expect)


def symmetry_case(rng, name, blocks, ranks, order, stationary):
    """Cyclic group generated by Ad(V), V = W diag(omega^m) W* per block.

    A stationary state is diagonal in W, so every element fixes it; otherwise
    the state is drawn in an independent basis and only the identity fixes it
    (orbit = order).  Exponent sets contain 0 and 1, so V^j is not scalar for
    0 < j < order and the listed automorphisms are distinct.
    """
    omega = np.exp(2j * np.pi / order)
    bases = [unitary(rng, n) for n in blocks]
    exps = []
    for n in blocks:
        e = [0, 1] + list(rng.integers(0, order, size=max(n - 2, 0)))
        exps.append(np.array(e[:n]) if n > 1 else np.array([0]))
    # one-dimensional blocks carry a scalar phase only; the group stays faithful
    # because some block of size >= 2 exists in every symmetry shape
    live = [b for b, r in enumerate(ranks) if r]
    w = rng.uniform(0.5, 1.5, size=len(live))
    w /= w.sum()
    weights = dict(zip(live, w))
    dens = [
        density(rng, n, r, weights.get(b, 0.0), basis=bases[b] if stationary else None)
        for b, (n, r) in enumerate(zip(blocks, ranks))
    ]
    unitaries = []
    for j in range(order):
        mats = [(q * (omega ** (j * e))[None, :]) @ q.conj().T for q, e in zip(bases, exps)]
        unitaries.append("  - [" + ", ".join(cmat(m) for m in mats) + "]\n")
    text = (f"kind: symmetry\nalgebra: {{blocks: {list(blocks)}}}\nstate:\n  densities:\n"
            + densities_yaml(dens, 4) + "unitaries:\n" + "".join(unitaries))
    stab = order if stationary else 1
    expect = [line("group_order", order), line("stabilizer_size", stab),
              line("orbit_size", order // stab), line("orbit_law_exact", True)]
    for j in range(order):
        fixed = stationary or j == 0
        expect.append(line(f"automorphism[{j}].stationary", fixed))
        expect.append(line(f"automorphism[{j}].implementer", "present" if fixed else "absent"))
    return Case(name, "symmetry", text, expect)


def _cyclic_characters(n):
    idx = np.arange(n)
    return [np.exp(2j * np.pi * k * idx / n) for k in range(n)]


def _s3_characters():
    # element order of sorted(itertools.permutations(range(3))), as opalg builds S_3
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    sign = [1, -1, -1, 1, 1, -1]
    fixed = [sum(1 for i in range(3) if p[i] == i) for p in perms]
    return [np.ones(6), np.array(sign, float), np.array(fixed, float) - 1.0], [1, 1, 2]


def group_case(rng, name, group, n_functions):
    """Functions sum_i c_i chi_i: positive definite iff all c_i >= 0, with a
    GNS carrier of dimension sum over c_i > 0 of dim_i^2.  The last function
    of a scenario with three or more gets one negative coefficient."""
    if group == "s3":
        chars, dims = _s3_characters()
    else:
        chars = _cyclic_characters(int(group[1:]))
        dims = [1] * len(chars)
    lines_out, expect = [], [line("group_order", len(chars[0]), "configured")]
    for k in range(n_functions):
        support = rng.choice(len(chars), size=rng.integers(1, min(len(chars), 4) + 1), replace=False)
        coeff = np.zeros(len(chars))
        coeff[support] = rng.uniform(0.5, 1.5, size=support.size)
        negative = n_functions >= 3 and k == n_functions - 1
        if negative:
            other = [i for i in range(len(chars)) if i not in set(support.tolist())]
            coeff[other[0] if other else support[0]] = -rng.uniform(0.5, 1.5)
        coeff /= len(chars[0])
        psi = sum(c * ch for c, ch in zip(coeff, chars))
        lines_out.append(f"  - {cvec(psi)}\n")
        expect.append(line(f"function[{k}].positive_definite", not negative))
        if not negative:
            dim = sum(d * d for c, d in zip(coeff, dims) if c > 0)
            expect.append(line(f"function[{k}].carrier_dim", dim))
    text = f"kind: group\ngroup: {{name: {group}}}\nfunctions:\n" + "".join(lines_out)
    return Case(name, "group", text, expect)


def _qubit_vector(angle, phase):
    return [complex(math.cos(angle)), complex(math.sin(angle)) * complex(math.cos(phase), math.sin(phase))]


def qubit_case(rng, name, mode, sites):
    """Two configurations differing on ``sites`` override sites (finite
    support: convergent, local transition over exactly those sites), or with
    incompatible asymptotics (no local transition)."""
    if mode == "tail":
        c, p = float(rng.uniform(0.5, 1.5)), float(rng.choice([0.75, 1.0, 1.5]))
        head = f"  - tail: {{c: {num(c)}, p: {num(p)}}}\n"
        chosen = sorted(rng.choice(np.arange(1, 3 * sites + 1), size=sites, replace=False).tolist())
        # both configurations override the chosen sites, with angles at least
        # 0.3 apart, so the difference support is exactly the chosen sites
        configs = []
        for which in range(2):
            entries = []
            for s in chosen:
                a = 0.3 + 0.7 * which + float(rng.uniform(0.0, 0.3))
                vec = _qubit_vector(a, float(rng.uniform(0, 2 * np.pi)))
                entries.append(f"      - {{site: {s}, vector: {cvec(vec)}}}\n")
            configs.append(head + "    overrides:\n" + "".join(entries))
        expect = [line("verdict", "convergent"),
                  line("justification", "configurations differ on a finite set of sites"),
                  line("local_transition_support", chosen)]
        text = "kind: qubit\nconfigs:\n" + "".join(configs)
        return Case(name, "qubit", text, expect)
    if mode == "const":
        chosen = sorted(rng.choice(np.arange(1, 3 * sites + 1), size=sites, replace=False).tolist())
        configs = []
        for which in range(2):
            entries = "".join(
                f"      - {{site: {s}, vector: "
                f"{cvec(_qubit_vector(0.3 + 0.7 * which + float(rng.uniform(0, 0.3)), float(rng.uniform(0, 6.28))))}}}\n"
                for s in chosen)
            configs.append(f"  - default: {cvec([1.0, 0.0])}\n    overrides:\n{entries}")
        expect = [line("verdict", "convergent"), line("local_transition_support", chosen)]
        return Case(name, "qubit", "kind: qubit\nconfigs:\n" + "".join(configs), expect)
    # divergent: equal exponents p <= 1/2 with different amplitudes
    p = float(rng.choice([0.25, 0.4]))
    c1 = float(rng.uniform(0.5, 0.8))
    c2 = c1 + float(rng.uniform(0.3, 0.6))
    text = (f"kind: qubit\nconfigs:\n  - tail: {{c: {num(c1)}, p: {num(p)}}}\n"
            f"  - tail: {{c: {num(c2)}, p: {num(p)}}}\n")
    expect = [line("verdict", "divergent"),
              line("local_transition", "absent (infinite difference support)")]
    return Case(name, "qubit", text, expect)


def ccr_case(rng, name, n, n_max, order, n_vectors):
    """Gram and K near the identity with positive couplings, and positive
    moment vectors, so every Wick moment is bounded away from 0."""
    a = rng.uniform(0.0, 1.0, size=(n, n))
    gram = np.eye(n) + 0.1 * (a + a.T) / n
    k_op = np.diag(rng.uniform(1.1, 1.6, size=n)) + 0.05 * rng.uniform(0.0, 1.0, size=(n, n)) / n
    vectors = rng.uniform(0.5, 1.5, size=(n_vectors, n))
    exponent = float(rng.choice([0.5, 0.8, 1.5, 2.0, 3.0]))
    amplitude = float(rng.uniform(0.5, 1.5))
    text = (f"kind: ccr\nspace:\n  gram: {rmat(gram)}\n  k: {rmat(k_op)}\n"
            f"moments:\n  max_order: {order}\n  vectors:\n"
            + "".join(f"    - {rvec(v)}\n" for v in vectors)
            + f"fock: {{max_occupation: {n_max}}}\n"
            f"eigenvalue_model: {{kind: power, amplitude: {num(amplitude)}, exponent: {num(exponent)}}}\n")
    expect = [
        line("fock_basis_size", math.comb(n + n_max, n)),
        line("gaussian_equivalence_series", "convergent" if exponent > 1.0 else "divergent"),
        line("gaussian_equivalence", "equivalent-to-Fock" if exponent > 1.0 else "inequivalent"),
    ]
    return Case(name, "ccr", text, expect)


# masses whose Klein-Gordon refinement ratio and Euclidean Green residual
# pass at cutoff 6 on every grid size used below (Euclidean lattices need >= 11
# points for the 0.05 Green-identity check)
FIELD_MASSES = (0.8, 1.0, 1.2)


def field_case(rng, name, points, euclid_points, n_samples):
    mass = float(rng.choice(FIELD_MASSES))
    second = mass + float(rng.choice([0.5, 1.0]))
    cutoff = 6.0
    samples = rng.uniform(-0.5, 0.5, size=(n_samples, 4))
    text = (f"kind: field\nfield:\n  mass: {num(mass)}\n  second_mass: {num(second)}\n"
            f"  cutoff: {num(cutoff)}\n  points: {points}\n  sample_points:\n"
            + "".join(f"    - {rvec(x)}\n" for x in samples)
            + f"  euclidean: {{cutoff: {num(cutoff)}, points: {euclid_points}}}\n")
    expect = [line("mass_witness_verdict", "inequivalent"),
              line("points_per_axis", points, "configured"),
              line("euclidean_points_per_axis", euclid_points, "configured")]
    return Case(name, "field", text, expect)


# ---------------------------------------------------------------------------
# workload shapes


def _coverage(rng, cases, kinds):
    """One demo-sized scenario of each listed kind, so every layer the per-layer
    metrics name runs at least once in every workload."""
    def nm(kind, tag):
        return f"{len(cases):03d}-{kind}-{tag}"

    makers = {
        "gns": lambda: gns_case(rng, nm("gns", "cover-2-r1"), [2], [1]),
        "equiv": lambda: equiv_case(rng, nm("equiv", "cover-2x2-r10-r10"), [2, 2], [1, 0], [1, 0]),
        "symmetry": lambda: symmetry_case(rng, nm("symmetry", "cover-2-Z2-fixed"), [2], [1], 2, True),
        "group": lambda: group_case(rng, nm("group", "cover-z3"), "z3", 2),
        "qubit": lambda: qubit_case(rng, nm("qubit", "cover-const1"), "const", 1),
        "ccr": lambda: ccr_case(rng, nm("ccr", "cover-n2"), 2, 3, 4, 2),
        "field": lambda: field_case(rng, nm("field", "cover-p9"), 9, 11, 2),
    }
    for kind in kinds:
        cases.append(makers[kind]())


def _gns_mid(rng, scale):
    """GNS, equivalence, symmetry and a few group scenarios; D <= 16."""
    full = scale == "full"
    cases = []
    add = cases.append

    def nm(kind, tag):
        return f"{len(cases):03d}-{kind}-{tag}"

    # faithful M_n: the size sweep (M4 is the single largest solve, D = 16)
    sweep = [4, 3, 3, 3, 2, 2, 2] if full else [3, 2]
    for n in sweep:
        add(gns_case(rng, nm("gns", f"M{n}-faithful"), [n], [n]))
    gns_shapes = [
        ([2, 3], [2, 3]), ([2, 3], [1, 2]), ([2, 3], [0, 3]), ([2, 3], [1, 0]),
        ([1, 2, 3], [1, 1, 2]), ([1, 2, 3], [0, 2, 2]), ([1, 2, 3], [1, 0, 0]),
        ([2, 2], [1, 2]), ([2, 2], [2, 0]), ([2, 2], [1, 0]), ([2, 2], [2, 2]),
        ([1, 2], [1, 2]), ([1, 2], [0, 1]), ([1, 2], [1, 0]),
        ([4], [2]), ([4], [1]), ([3], [2]), ([3], [1]), ([2], [1]),
    ]
    if not full:
        gns_shapes = gns_shapes[4:6] + gns_shapes[7:9]
    for blocks, ranks in gns_shapes:
        tag = "x".join(map(str, blocks)) + "-r" + "".join(map(str, ranks))
        add(gns_case(rng, nm("gns", tag), blocks, ranks))
    equiv_shapes = [
        # identical densities: equal (no intertwiner solve)
        ([4], [4], [4], True), ([2, 3], [2, 3], [2, 3], True), ([1, 2, 3], [1, 1, 2], [1, 1, 2], True),
        ([2, 2], [1, 2], [1, 2], True),
        # equal ranks: equivalent (intertwiner solve)
        ([3], [3], [3], False), ([2, 3], [1, 2], [1, 2], False), ([1, 2, 3], [1, 1, 2], [1, 1, 2], False),
        ([2, 2], [1, 2], [1, 2], False), ([1, 2], [1, 2], [1, 2], False), ([4], [2], [2], False),
        ([2], [1], [1], False), ([2, 2], [0, 1], [0, 1], False), ([2, 3], [0, 2], [0, 2], False),
        # different ranks: inequivalent
        ([2, 2], [1, 2], [2, 1], False), ([2, 3], [1, 2], [2, 2], False), ([1, 2, 3], [1, 1, 2], [0, 1, 2], False),
        ([4], [2], [3], False), ([3], [1], [3], False), ([1, 2], [1, 1], [1, 2], False),
    ]
    if not full:
        equiv_shapes = [equiv_shapes[i] for i in (0, 4, 7, 13, 16)]
    for blocks, rf, rg, same in equiv_shapes:
        tag = "x".join(map(str, blocks)) + "-r" + "".join(map(str, rf)) + "-r" + "".join(map(str, rg))
        add(equiv_case(rng, nm("equiv", tag), blocks, rf, rg, identical=same))
    sym_shapes = [
        ([2], [2], 4, True), ([2], [2], 3, False), ([3], [3], 3, True), ([3], [2], 4, False),
        ([1, 2], [1, 2], 4, False), ([2, 2], [1, 2], 2, True), ([2, 3], [2, 3], 3, False),
        ([1, 2, 3], [1, 1, 2], 3, True), ([4], [4], 2, False),
    ]
    if not full:
        sym_shapes = sym_shapes[:2]
    for blocks, ranks, order, stat in sym_shapes:
        tag = "x".join(map(str, blocks)) + f"-Z{order}-" + ("fixed" if stat else "moved")
        add(symmetry_case(rng, nm("symmetry", tag), blocks, ranks, order, stat))
    groups = ["z8", "z16", "z32", "s3"] if full else ["z8"]
    for g in groups:
        add(group_case(rng, nm("group", g), g, 3))
    # a bulk of small scenarios of two shapes that cost about the same, so the
    # median lies inside a dense cluster (about ranks 26-48 of 85) instead of
    # on a steep stretch of the cost distribution, where a shift of one rank
    # moves it by several percent
    for _ in range(12 if full else 1):
        add(gns_case(rng, nm("gns", "bulk-2x2-r12"), [2, 2], [1, 2]))
        add(equiv_case(rng, nm("equiv", "bulk-1x2-r12-r12"), [1, 2], [1, 2], [1, 2]))
    _coverage(rng, cases, ("qubit", "ccr", "field"))
    return cases


def _kinds_small(rng, scale):
    """Many demo-sized scenarios of all seven kinds, plus long cheap documents."""
    reps = 4 if scale == "full" else 1
    cases = []

    def nm(kind, tag):
        return f"{len(cases):03d}-{kind}-{tag}"

    for _ in range(reps):
        for blocks, ranks in (([2], [1]), ([2], [2]), ([1, 2], [1, 1]), ([2, 2], [0, 1]),
                              ([3], [1]), ([4], [1]), ([5], [1])):
            tag = "x".join(map(str, blocks)) + "-r" + "".join(map(str, ranks))
            cases.append(gns_case(rng, nm("gns", tag), blocks, ranks))
        for blocks, rf, rg, same in (([2, 2], [1, 0], [0, 1], False), ([2, 2], [1, 0], [1, 0], False),
                                     ([2], [2], [2], True), ([1, 2], [1, 1], [1, 1], False),
                                     ([4], [1], [1], False), ([5], [1], [1], True),
                                     ([6], [1], [1], True), ([6], [1], [2], False)):
            tag = "x".join(map(str, blocks)) + "-r" + "".join(map(str, rf)) + "-r" + "".join(map(str, rg))
            cases.append(equiv_case(rng, nm("equiv", tag), blocks, rf, rg, identical=same))
        for mode, sites in (("const", 1), ("tail", 2), ("divergent", 0)):
            cases.append(qubit_case(rng, nm("qubit", f"{mode}{sites}"), mode, sites))
        for g in ("z3", "z4", "s3"):
            cases.append(group_case(rng, nm("group", g), g, 2))
        cases.append(ccr_case(rng, nm("ccr", "n2"), 2, 4, 4, 2))
        cases.append(ccr_case(rng, nm("ccr", "n3"), 3, 3, 4, 2))
        cases.append(field_case(rng, nm("field", "p9"), 9, 11, 2))
        cases.append(field_case(rng, nm("field", "p11"), 11, 11, 2))
        for blocks, ranks, order, stat in (([2], [1], 2, True), ([2], [2], 2, False), ([1, 2], [1, 1], 2, True)):
            tag = "x".join(map(str, blocks)) + f"-Z{order}-" + ("fixed" if stat else "moved")
            cases.append(symmetry_case(rng, nm("symmetry", tag), blocks, ranks, order, stat))
    return cases


def _numerics_large(rng, scale):
    """Fock builds, dense field grids, multi-site qubit transitions.

    The three heaviest shapes appear once; the moderate ones repeat three times
    so one pass has enough samples for a tail percentile (p82 of 56).  The
    counts put both percentiles inside clusters of equal-cost scenarios: the
    median among the 25-35 ms ones (ccr n_max 7, 4-site transitions, 25-point
    grids), with the smaller instances below it, and the tail among the six
    5-site transitions, with four 41-point grids and the three heaviest
    shapes above it."""
    full = scale == "full"
    cases = []

    def nm(kind, tag):
        return f"{len(cases):03d}-{kind}-{tag}"

    def add_ccr(n, n_max, order, nv):
        cases.append(ccr_case(rng, nm("ccr", f"n{n}-nmax{n_max}-o{order}"), n, n_max, order, nv))

    def add_field(points, epoints, ns):
        cases.append(field_case(rng, nm("field", f"p{points}-e{epoints}"), points, epoints, ns))

    def add_qubit(mode, sites):
        cases.append(qubit_case(rng, nm("qubit", f"{mode}{sites}"), mode, sites))

    if full:
        add_ccr(5, 9, 6, 3)
        add_ccr(4, 10, 6, 4)
        add_qubit("tail", 6)
        add_field(41, 21, 4)
    for _ in range(3 if full else 1):
        for shape in ((4, 8, 6, 3), (4, 6, 4, 2), (4, 7, 4, 2)) if full else ((4, 6, 4, 2),):
            add_ccr(*shape)
        for shape in ((41, 21, 4), (33, 17, 3), (29, 15, 3), (25, 13, 3)) if full else ((25, 13, 2),):
            add_field(*shape)
        for shape in (("tail", 5), ("const", 5), ("tail", 4), ("const", 4)) if full else (("tail", 4),):
            add_qubit(*shape)
        if full:
            add_ccr(3, 6, 4, 2)
            add_ccr(3, 8, 4, 2)
            add_field(17, 11, 2)
            add_qubit("tail", 3)
            add_qubit("const", 3)
    _coverage(rng, cases, ("gns", "equiv", "symmetry", "group"))
    return cases


_BUILDERS = {"gns-mid": _gns_mid, "kinds-small": _kinds_small, "numerics-large": _numerics_large}


def generate(workload: str, seed: int, scale: str = "full") -> list:
    """Cases of ``workload`` drawn from ``seed``; ``scale`` is 'full' or 'tiny'."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng, scale)


def sweep_cases(seed: int, scale: str = "full") -> list:
    """The faithful one-block M_n gns cases that ``gns-mid`` contains (n = 2, 3, 4 at full scale)."""
    return [c for c in generate("gns-mid", seed, scale) if c.sweep_n]


def check_report(case: Case, text) -> str:
    """'' when ``text`` is a correct report for ``case``, else the first problem."""
    if text is None:
        return "no report"
    lines = text.splitlines()
    if not lines or lines[0] != f"scenario kind = {case.kind}":
        return "wrong or missing header"
    present = set(lines)
    for want in case.expect:
        if want not in present:
            return f"missing expected line {want!r}"
    for got in lines:
        if got.endswith("] FAIL"):
            return f"failed check {got!r}"
    return ""
