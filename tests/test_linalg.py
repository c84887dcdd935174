import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from k3lax.linalg import (
    diagonalize,
    exact_signature,
    functional_kernel,
    hnf_rows,
    solve_linear,
    xgcd,
)


def test_xgcd():
    rng = random.Random(5)
    for _ in range(200):
        a, b = rng.randint(-500, 500), rng.randint(-500, 500)
        g, x, y = xgcd(a, b)
        assert g == a * x + b * y
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_signature_diagonal():
    assert exact_signature([[2]]) == (1, 0, 0)
    assert exact_signature([[2, 0], [0, -4]]) == (1, 1, 0)
    assert exact_signature([[0, 1], [1, 0]]) == (1, 1, 0)
    assert exact_signature([[0, 0], [0, 0]]) == (0, 0, 2)


def test_signature_indefinite_with_zero_diagonal_block():
    # hyperbolic plane plus a negative line
    gram = [[0, 1, 0], [1, 0, 0], [0, 0, -2]]
    assert exact_signature(gram) == (1, 2, 0)


def _mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _transpose(A):
    return [list(col) for col in zip(*A)]


@st.composite
def congruent_diagonals(draw):
    """(G, D0) with G = T0 diag(D0) T0^T for a random invertible T0: unit
    lower triangular times a permutation times a unit upper triangular,
    so pivots vanish and need swaps or partner-row repairs."""
    n = draw(st.integers(0, 5))
    small = st.integers(-3, 3)
    d0 = draw(st.lists(st.sampled_from([-2, -1, 0, 0, 1, 3]), min_size=n, max_size=n))
    lower = [[1 if i == j else (draw(small) if j < i else 0) for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (draw(small) if j > i else 0) for j in range(n)] for i in range(n)]
    perm = draw(st.permutations(range(n)))
    P = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
    T0 = _mul(_mul(lower, P), upper)
    G = _mul(_mul(T0, [[d0[i] if i == j else 0 for j in range(n)] for i in range(n)]), _transpose(T0))
    return G, d0


@settings(max_examples=300, deadline=None)
@given(congruent_diagonals())
# zero diagonals throughout: only the partner-row repair finds a pivot
@example(([[0, 1], [1, 0]], [1, -1]))
@example(([[0, 2, 1], [2, 0, 3], [1, 3, 0]], [1, -1, -1]))
@example(([[0, 0, 1], [0, 0, 0], [1, 0, 0]], [1, -1, 0]))
def test_diagonalize_congruence(case):
    G, d0 = case
    pos = sum(1 for x in d0 if x > 0)
    neg = sum(1 for x in d0 if x < 0)
    assert exact_signature(G) == (pos, neg, len(d0) - pos - neg)
    T, diag = diagonalize(G)
    n = len(G)
    assert _mul(_mul(T, G), _transpose(T)) == [
        [diag[i] if i == j else 0 for j in range(n)] for i in range(n)
    ]


def test_diagonalize_definite_is_unit_lower_triangular():
    G = [[-4, 2, 0], [2, -4, 2], [0, 2, -6]]
    T, diag = diagonalize(G)
    assert all(T[i][i] == 1 and not any(T[i][i + 1:]) for i in range(3))
    assert diag == [-4, -3, Fraction(-14, 3)]


def test_hnf_canonical():
    rows = hnf_rows([[2, 4], [1, 3]])
    assert rows == [(1, 1), (0, 2)]
    # same lattice, different generators
    assert hnf_rows([[1, 3], [0, 2]]) == rows
    assert hnf_rows([[3, 7], [1, 3], [2, 4]]) == rows


def test_hnf_drops_zero_rows():
    assert hnf_rows([[0, 0], [3, 0]]) == [(3, 0)]


def test_functional_kernel():
    basis = functional_kernel([-1, 0, -1])
    assert basis == [(1, 0, -1), (0, 1, 0)]
    for row in basis:
        assert -row[0] - row[2] == 0


def test_functional_kernel_gcd_functional():
    basis = functional_kernel([2, 3])
    assert len(basis) == 1
    (row,) = basis
    assert 2 * row[0] + 3 * row[1] == 0


def test_solve_linear_fraction():
    x = solve_linear([[2, 1], [1, 3]], [Fraction(5), Fraction(10)])
    assert x == [Fraction(1), Fraction(3)]


def test_solve_linear_complex_rhs():
    x = solve_linear([[1, 1], [1, -1]], [complex(2, 2), complex(0, 0)])
    assert x == [complex(1, 1), complex(1, 1)]
