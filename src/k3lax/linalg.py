"""Small exact linear algebra kit: one symmetric elimination
(`diagonalize`, behind signatures, orthogonal bases and span checks), one
general solve (`solve_linear`), and canonical integer kernels.

Everything here is deterministic and rational.  Integer lattice bases are
canonicalized through the Hermite normal form, which is unique for a given
row span, so downstream constructions never depend on iteration order.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def diagonalize(
    gram: Sequence[Sequence[int | Fraction]],
) -> tuple[list[list[Fraction]], list[Fraction]]:
    """(T, diag) with T * gram * T^T = diag(diag), exactly, for a symmetric gram.

    Simultaneous row and column operations, recorded in T, preserve the
    congruence class.  A vanishing pivot is repaired by a swap with a later
    nonzero diagonal entry, else by adding the partner row and column,
    which makes the pivot 2*M[k][j].  For a definite gram no repair
    happens: T is unit lower triangular and T^-1 is the L of LDL^T.
    """
    n = len(gram)
    M = [[Fraction(x) for x in row] for row in gram]
    T = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(n):
        if M[k][k] == 0:
            j = next((j for j in range(k + 1, n) if M[j][j] != 0), None)
            if j is not None:
                M[k], M[j] = M[j], M[k]
                T[k], T[j] = T[j], T[k]
                for row in M:
                    row[k], row[j] = row[j], row[k]
            else:
                j = next((j for j in range(k + 1, n) if M[k][j] != 0), None)
                if j is None:
                    continue
                M[k] = [x + y for x, y in zip(M[k], M[j])]
                T[k] = [x + y for x, y in zip(T[k], T[j])]
                for row in M:
                    row[k] += row[j]
        pivot = M[k][k]
        for i in range(k + 1, n):
            if M[i][k] != 0:
                f = M[i][k] / pivot
                M[i] = [x - f * y for x, y in zip(M[i], M[k])]
                T[i] = [x - f * y for x, y in zip(T[i], T[k])]
                for row in M:
                    row[i] -= f * row[k]
    return T, [M[k][k] for k in range(n)]


def exact_signature(gram: Sequence[Sequence[int | Fraction]]) -> tuple[int, int, int]:
    """Counts (positive, negative, zero) of a symmetric matrix, exactly."""
    diag = diagonalize(gram)[1]
    pos = sum(x > 0 for x in diag)
    neg = sum(x < 0 for x in diag)
    return pos, neg, len(diag) - pos - neg


def hnf_rows(rows: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Hermite normal form basis of the row span of an integer matrix.

    Pivots are positive, entries above a pivot are reduced into
    [0, pivot), zero rows are dropped.  The output is the unique such
    basis, which makes it a sound canonical form.
    """
    A = [list(row) for row in rows]
    if not A:
        return []
    m, n = len(A), len(A[0])
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        for i in range(r + 1, m):
            while A[i][c] != 0:
                q = A[r][c] // A[i][c]
                A[r] = [x - q * y for x, y in zip(A[r], A[i])]
                A[r], A[i] = A[i], A[r]
        if A[r][c] < 0:
            A[r] = [-x for x in A[r]]
        for i in range(r):
            q = A[i][c] // A[r][c]
            if q:
                A[i] = [x - q * y for x, y in zip(A[i], A[r])]
        r += 1
        if r == m:
            break
    return [tuple(row) for row in A[:r]]


def functional_kernel(coeffs: Sequence[int]) -> list[tuple[int, ...]]:
    """Canonical basis of {x in Z^n : coeffs . x = 0}.

    Unimodular column operations drive the functional to a single nonzero
    slot; the remaining columns then span the kernel and get HNF-reduced.
    """
    n = len(coeffs)
    cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    vals = [int(v) for v in coeffs]
    gcol: int | None = None
    for i in range(n):
        if vals[i] == 0:
            continue
        if gcol is None:
            gcol = i
            continue
        g, x, y = xgcd(vals[gcol], vals[i])
        a, b = vals[gcol] // g, vals[i] // g
        old_g, old_i = cols[gcol], cols[i]
        cols[gcol] = [x * p + y * q for p, q in zip(old_g, old_i)]
        cols[i] = [-b * p + a * q for p, q in zip(old_g, old_i)]
        vals[gcol], vals[i] = g, 0
    kernel = [cols[j] for j in range(n) if j != gcol]
    return hnf_rows(kernel)


def solve_linear(matrix: Sequence[Sequence[int | Fraction]], rhs: list):
    """Solve a square rational system with right-hand sides in any field.

    The elimination multiplies right-hand entries only by rationals, so
    the solution stays in whatever field the entries came from (used with
    rational, quadratic, and quadratic-complex values alike).
    """
    n = len(matrix)
    A = [[Fraction(x) for x in row] for row in matrix]
    b = list(rhs)
    for col in range(n):
        piv = next((i for i in range(col, n) if A[i][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular linear system")
        A[col], A[piv] = A[piv], A[col]
        b[col], b[piv] = b[piv], b[col]
        p = A[col][col]
        A[col] = [x / p for x in A[col]]
        b[col] = b[col] / p
        for i in range(n):
            if i != col and A[i][col] != 0:
                f = A[i][col]
                A[i] = [x - f * y for x, y in zip(A[i], A[col])]
                b[i] = b[i] - f * b[col]
    return b
