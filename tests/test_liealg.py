import random
import re
from fractions import Fraction

import pytest

from torusbv import liealg
from torusbv.bvalgebra import PolyVector, gerstenhaber_bracket
from torusbv.liealg import (
    GlMatrixElement,
    Sl2Triple,
    cartan_subalgebra,
    restrict_from_projective,
    root_grading,
    root_system_report,
    standard_sl2,
    verify_lie_embedding,
    witt_bracket,
)


def xi(n):
    return PolyVector.xi(1, (n,), 1)


def test_witt_bracket_closed_form_rank1():
    for n in range(-4, 5):
        for m in range(-4, 5):
            assert witt_bracket(xi(n), xi(m)) == xi(n + m).scale(m - n)


def test_witt_bracket_rejects_mixed_degree():
    with pytest.raises(ValueError):
        witt_bracket(xi(1), PolyVector.one(1))


def test_sl2_triple_relations():
    triple = standard_sl2()
    assert witt_bracket(triple.h, triple.e) == triple.e.scale(2)
    assert witt_bracket(triple.h, triple.f) == triple.f.scale(-2)
    assert witt_bracket(triple.e, triple.f) == triple.h


def test_sl2_triple_components():
    triple = standard_sl2()
    assert triple.e == xi(1)
    assert triple.h == xi(0).scale(2)
    assert triple.f == xi(-1).scale(-1)


def test_sl2_triple_rejects_bad_relations():
    with pytest.raises(ValueError):
        Sl2Triple(xi(1), xi(0), xi(-1))


def test_cartan_is_abelian():
    for rank in (1, 2, 3):
        basis = cartan_subalgebra(rank)
        assert len(basis) == rank
        for a in basis:
            for b in basis:
                assert witt_bracket(a, b).is_zero()


def test_restrict_lower_corner():
    # Z_1 D_0 maps to -z_1 (theta_1 + ... + theta_r); at r=1 this is -z theta,
    # so e = xi_1 equals minus the restriction.
    e10 = GlMatrixElement.elementary(2, 1, 0)
    assert restrict_from_projective(e10) == xi(1).scale(-1)


def test_restrict_upper_corner():
    # Z_0 D_1 maps to the constant field d_1 = z^{-1} theta.
    e01 = GlMatrixElement.elementary(2, 0, 1)
    assert restrict_from_projective(e01) == PolyVector.monomial(1, (-1,), (1,))


def test_restrict_kills_identity():
    for rank in (1, 2, 3):
        size = rank + 1
        identity = GlMatrixElement(size, {(i, i): 1 for i in range(size)})
        assert restrict_from_projective(identity).is_zero()


@pytest.mark.parametrize("rank,expected_dim", [(1, 3), (2, 8), (3, 15), (4, 24), (5, 35)])
def test_embedding_report(rank, expected_dim):
    report = verify_lie_embedding(rank)
    assert report["homomorphism_ok"]
    assert all(entry["ok"] for entry in report["pairs"])
    assert len(report["pairs"]) == (rank + 1) ** 4
    assert report["image_dimension"] == expected_dim
    assert report["scalars_killed"]
    assert report["injective_on_sl"]


def test_embedding_rank_below_one_rejected():
    with pytest.raises(ValueError):
        verify_lie_embedding(0)
    with pytest.raises(ValueError):
        root_system_report(0)


def test_embedding_and_root_system_at_rank_4():
    report = verify_lie_embedding(4)
    assert report["homomorphism_ok"]
    assert len(report["pairs"]) == 5 ** 4
    assert report["scalars_killed"]
    assert report["image_dimension"] == report["expected_dimension"] == 24
    assert report["injective_on_sl"]
    roots = root_system_report(4)
    assert roots["matches_type_a"]
    assert roots["root_count"] == 20
    assert roots["cartan_at_zero"]


def test_root_grading_matrix_entry():
    # z_1 d_2 has grading e_1 - e_2.
    e12 = GlMatrixElement.elementary(3, 1, 2)
    grading = root_grading(restrict_from_projective(e12))
    assert grading == (0, 1, -1)


def test_root_grading_cartan_at_zero():
    for theta in cartan_subalgebra(2):
        assert root_grading(theta) == (0, 0, 0)
    assert root_grading(PolyVector.zero(2)) == (0, 0, 0)


def test_root_vector_coordinates():
    # z_i corresponds to e_i - e_0 in the ambient sum-zero lattice.
    assert root_grading(PolyVector.xi(2, (1, 0), 1)) == (-1, 1, 0)
    assert root_grading(PolyVector.xi(2, (0, 1), 2)) == (-1, 0, 1)
    with pytest.raises(ValueError, match="not homogeneous"):
        root_grading(PolyVector.xi(2, (1, 0), 1) + PolyVector.xi(2, (0, 1), 1))


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_root_system_matches_type_a(rank):
    report = root_system_report(rank)
    assert report["root_count"] == rank * (rank + 1)
    assert report["matches_type_a"]
    assert report["cartan_dim"] == rank
    assert report["cartan_at_zero"]
    # e_a - e_b for a != b in Z^{rank+1}
    size = rank + 1
    type_a = set()
    for a in range(size):
        for b in range(size):
            if a != b:
                root = [0] * size
                root[a], root[b] = 1, -1
                type_a.add(tuple(root))
    assert set(map(tuple, report["roots"])) == type_a


def test_cartan_dim_is_measured_not_echoed(monkeypatch):
    # a Cartan list with theta_1 twice spans rank - 1 dimensions
    def repeated_theta_1(rank):
        return [PolyVector.theta(rank, 1)] * 2 + [PolyVector.theta(rank, i) for i in range(2, rank)]

    monkeypatch.setattr(liealg, "cartan_subalgebra", repeated_theta_1)
    for rank in (2, 3, 4):
        report = root_system_report(rank)
        assert report["cartan_dim"] == rank - 1
        assert report["cartan_at_zero"]


def dense_rows(m):
    return [[m.entries.get((i, j), 0) for j in range(m.size)] for i in range(m.size)]


def dense_commutator(a, b):
    """ab - ba on lists of rows, by the definition of the matrix product."""
    def product(x, y):
        return [[sum(p * q for p, q in zip(row, col)) for col in zip(*y)] for row in x]

    return [[p - q for p, q in zip(r1, r2)] for r1, r2 in zip(product(a, b), product(b, a))]


def random_entries(rng, size, zero_share):
    """The entries of a size x size matrix: each is left out with probability
    zero_share, else a small Fraction, which may itself be 0."""
    entries = {}
    for i in range(size):
        for j in range(size):
            if rng.random() >= zero_share:
                entries[i, j] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return entries


def assert_sparse(m):
    assert all(
        (type(v) is int or type(v) is Fraction and v.denominator != 1) and v
        for v in m.entries.values()
    )
    assert all(0 <= i < m.size and 0 <= j < m.size for i, j in m.entries)


def test_entries_are_the_nonzero_canonical_coefficients():
    m = GlMatrixElement(3, {(0, 1): "1/2", (1, 0): Fraction(0), (1, 2): -3, (2, 2): 0})
    assert m.size == 3
    assert m.entries == {(0, 1): Fraction(1, 2), (1, 2): Fraction(-3)}
    assert_sparse(m)
    assert GlMatrixElement(2, {}).entries == {}
    assert GlMatrixElement.elementary(4, 3, 1).entries == {(3, 1): Fraction(1)}
    for size in (1, 0, -1):
        with pytest.raises(ValueError):
            GlMatrixElement(size, {})
    with pytest.raises(TypeError):
        GlMatrixElement(2, {(0, 0): 0.5})
    with pytest.raises(ValueError):
        GlMatrixElement.elementary(1, 0, 0)
    for i, j in ((2, 0), (0, 2), (-1, 0), (0, -1)):
        with pytest.raises(IndexError):
            GlMatrixElement.elementary(2, i, j)
        with pytest.raises(IndexError):
            GlMatrixElement(2, {(0, 0): 1, (i, j): 1})
    with pytest.raises(ValueError):
        GlMatrixElement.elementary(2, 0, 1).commutator(GlMatrixElement.elementary(3, 0, 1))


def test_commutator_matches_dense_definition():
    rng = random.Random(41)
    zero_results = 0
    for trial in range(360):
        size = rng.randint(2, 6)
        zero_share = (0.0, 0.5, 0.9)[trial % 3]
        a, b = (GlMatrixElement(size, random_entries(rng, size, zero_share)) for _ in range(2))
        if trial % 10 == 0:
            b = a  # [a, a] = 0: every product term cancels
        got = a.commutator(b)
        assert got.size == size
        assert_sparse(got)
        assert dense_rows(got) == dense_commutator(dense_rows(a), dense_rows(b))
        zero_results += not got.entries
    assert zero_results >= 36


def test_commutator_of_matrix_units():
    # [E_ij, E_kl] = delta_jk E_il - delta_li E_kj
    for size in range(2, 6):
        units = [(i, j) for i in range(size) for j in range(size)]
        for i, j in units:
            for k, l in units:
                want = {}
                if j == k:
                    want[i, l] = Fraction(1)
                if l == i:
                    want[k, j] = want.get((k, j), 0) - 1
                want = {key: v for key, v in want.items() if v}
                got = GlMatrixElement.elementary(size, i, j).commutator(GlMatrixElement.elementary(size, k, l))
                assert got.entries == want
                assert_sparse(got)


def restrict_entry_oracle(rank, i, j):
    """The four-case image of Z_i D_j, with d_j = z_j^{-1} theta_j and the
    Euler relation for D_0: the oracle of the closed form."""
    zero = (0,) * rank
    if i != 0 and j != 0:
        exp = list(zero)
        exp[i - 1] += 1
        exp[j - 1] -= 1
        return PolyVector.xi(rank, exp, j)
    if i == 0 and j != 0:
        exp = list(zero)
        exp[j - 1] -= 1
        return PolyVector.xi(rank, exp, j)
    if i != 0 and j == 0:
        exp = list(zero)
        exp[i - 1] += 1
        out = PolyVector.zero(rank)
        for k in range(1, rank + 1):
            out = out - PolyVector.xi(rank, exp, k)
        return out
    out = PolyVector.zero(rank)
    for k in range(1, rank + 1):
        out = out - PolyVector.theta(rank, k)
    return out


def restrict_oracle(m):
    rank = m.size - 1
    out = PolyVector.zero(rank)
    for (i, j), c in m.entries.items():
        out = out + restrict_entry_oracle(rank, i, j).scale(c)
    return out


def test_restrict_closed_form_matches_four_case_oracle():
    rng = random.Random(31)
    matrices = [
        GlMatrixElement.elementary(size, i, j)
        for size in range(2, 7)
        for i in range(size)
        for j in range(size)
    ]
    for _ in range(600):
        size = rng.randint(2, 6)
        zero_share = rng.choice((0.0, 0.5, 0.9))
        entries = random_entries(rng, size, zero_share)
        if rng.random() < 0.2:
            # scalar matrices restrict to 0: every term cancels
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            entries = {(a, a): c for a in range(size)}
        matrices.append(GlMatrixElement(size, entries))
    zero_results = 0
    for m in matrices:
        got = restrict_from_projective(m)
        assert got == restrict_oracle(m)
        assert all(type(c) in (int, Fraction) and c for c in got.terms.values())
        zero_results += got.is_zero()
    assert zero_results > 50


def _ints_and_tuples_only(x):
    return type(x) is int or (type(x) is tuple and all(map(_ints_and_tuples_only, x)))


def test_restrict_chart_cache_is_per_rank_and_holds_tuples_only():
    # from a cold cache, calls at ranks 1-5 in a seeded order: each result
    # must use the chart of its own rank, whatever rank came just before
    liealg._chart.cache_clear()
    rng = random.Random(37)
    ranks = [rng.randint(1, 5) for _ in range(120)]
    assert {(a, b) for a, b in zip(ranks, ranks[1:]) if a != b} >= {(1, 5), (5, 1), (2, 3), (3, 2)}
    for rank in ranks:
        size = rank + 1
        m = GlMatrixElement(size, random_entries(rng, size, rng.choice((0.0, 0.5))))
        assert restrict_from_projective(m) == restrict_oracle(m)
    assert liealg._chart.cache_info().currsize == 5
    for rank in range(1, 6):
        e, theta_tilde = liealg._chart(rank)
        assert _ints_and_tuples_only(e) and _ints_and_tuples_only(theta_tilde)
        assert len(e) == len(theta_tilde) == rank + 1


def test_sizes_must_be_non_bool_ints():
    for rank in (True, 2.0, Fraction(2)):
        with pytest.raises(TypeError, match=rf"^rank must be an integer, got {re.escape(repr(rank))}$"):
            verify_lie_embedding(rank)
        with pytest.raises(TypeError, match=rf"^rank must be an integer, got {re.escape(repr(rank))}$"):
            root_system_report(rank)


def test_vector_field_arguments_accepted_and_rejected():
    f = PolyVector.monomial(2, (1, 0))
    theta = PolyVector.theta(2, 1)
    two_vector = PolyVector.monomial(2, (0, 1), (1, 2))
    accepted = [PolyVector.zero(2), theta, theta + PolyVector.xi(2, (1, -1), 2)]
    rejected = [f, theta + f, two_vector, theta + two_vector, f + two_vector]
    for x in accepted:
        for y in accepted:
            assert witt_bracket(x, y) == gerstenhaber_bracket(x, y)
    for bad in rejected:
        with pytest.raises(ValueError, match="^left argument must be a pure degree-1 polyvector field$"):
            witt_bracket(bad, theta)
        with pytest.raises(ValueError, match="^right argument must be a pure degree-1 polyvector field$"):
            witt_bracket(theta, bad)
