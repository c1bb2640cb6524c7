"""Exact dense linear algebra over the ordered fields of `field`.

Vectors and square matrices hold Fractions and/or RatFuncEps entries
(ints are promoted to Fractions on construction) and are immutable.
`inverse` and `det` run plain Gaussian elimination with exact division;
the pivot is the first row with a nonzero entry in the current column.
Norm questions are handled entirely through `frob_sq`, the *squared*
Frobenius norm: every downstream order/infinitesimality statement is
equivalent to its squared form, which avoids square roots that Q(e)
does not have.
"""

from __future__ import annotations

from fractions import Fraction

from .field import RatFuncEps, format_elem, parse_elem

__all__ = [
    "Vec",
    "Mat",
    "SingularMatrixError",
    "det",
    "inverse",
    "frob_sq",
    "is_orthogonal",
    "mat_to_json",
    "mat_from_json",
]


def _canon_entry(x):
    if isinstance(x, (Fraction, RatFuncEps)):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact entries required, got {type(x).__name__}")


class Vec:
    """Immutable vector of exact field elements."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        es = tuple(_canon_entry(x) for x in entries)
        if not es:
            raise ValueError("empty vector")
        self.entries = es

    @classmethod
    def basis(cls, n, i):
        return cls(tuple(Fraction(1 if j == i else 0) for j in range(n)))

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other):
        if not isinstance(other, Vec):
            return NotImplemented
        return len(self) == len(other) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def _same_len(self, other):
        if len(self) != len(other):
            raise ValueError(f"dimension mismatch: {len(self)} vs {len(other)}")

    def __add__(self, other):
        if not isinstance(other, Vec):
            return NotImplemented
        self._same_len(other)
        return Vec(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other):
        if not isinstance(other, Vec):
            return NotImplemented
        self._same_len(other)
        return Vec(tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self):
        return Vec(tuple(-a for a in self.entries))

    def __rmul__(self, scalar):
        if not isinstance(scalar, (int, Fraction, RatFuncEps)):
            return NotImplemented
        return Vec(tuple(scalar * a for a in self.entries))

    __mul__ = __rmul__

    def __repr__(self):
        return f"Vec([{', '.join(format_elem(a) for a in self.entries)}])"


class Mat:
    """Immutable square matrix of exact field elements."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rs = tuple(tuple(_canon_entry(x) for x in row) for row in rows)
        n = len(rs)
        if n == 0 or any(len(r) != n for r in rs):
            raise ValueError("square matrix required")
        self.rows = rs

    @property
    def n(self):
        return len(self.rows)

    @classmethod
    def identity(cls, n):
        return cls.diag([Fraction(1)] * n)

    @classmethod
    def zero(cls, n):
        return cls([[Fraction(0)] * n for _ in range(n)])

    @classmethod
    def diag(cls, ds):
        ds = tuple(_canon_entry(d) for d in ds)
        n = len(ds)
        return cls(
            [[ds[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        )

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def col(self, j):
        return Vec(tuple(r[j] for r in self.rows))

    def entries(self):
        for row in self.rows:
            yield from row

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def _same_n(self, other):
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        self._same_n(other)
        return Mat(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __sub__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        self._same_n(other)
        return Mat(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __neg__(self):
        return Mat(tuple(tuple(-a for a in row) for row in self.rows))

    def __rmul__(self, scalar):
        if not isinstance(scalar, (int, Fraction, RatFuncEps)):
            return NotImplemented
        return Mat(tuple(tuple(scalar * a for a in row) for row in self.rows))

    __mul__ = __rmul__

    def __matmul__(self, other):
        if isinstance(other, Mat):
            self._same_n(other)
            cols = tuple(zip(*other.rows))
            return Mat(
                tuple(
                    tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                    for row in self.rows
                )
            )
        if isinstance(other, Vec):
            if len(other) != self.n:
                raise ValueError(f"dimension mismatch: {self.n} vs {len(other)}")
            return Vec(
                tuple(sum(a * b for a, b in zip(row, other)) for row in self.rows)
            )
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("matrix powers must be non-negative integers")
        out = Mat.identity(self.n)
        for _ in range(k):
            out = out @ self
        return out

    @property
    def T(self):
        return Mat(tuple(zip(*self.rows)))

    def __repr__(self):
        body = ", ".join(
            "[" + ", ".join(format_elem(a) for a in row) + "]" for row in self.rows
        )
        return f"Mat([{body}])"


class SingularMatrixError(ArithmeticError):
    """Elimination found no pivot; `column` is where it failed."""

    def __init__(self, column):
        super().__init__(f"matrix is singular: no pivot in column {column}")
        self.column = column


def det(a):
    """Exact determinant by Gaussian elimination."""
    n = a.n
    work = [list(row) for row in a.rows]
    acc = 1
    flip = False
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col] != 0), None)
        if piv is None:
            return acc * 0
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            flip = not flip
        pv = work[col][col]
        acc = acc * pv
        for r in range(col + 1, n):
            if work[r][col] != 0:
                f = work[r][col] / pv
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return -acc if flip else acc


def inverse(a):
    """Exact inverse by Gauss-Jordan elimination; raises
    SingularMatrixError (carrying the failing column) when singular."""
    n = a.n
    work = [
        list(row) + [Fraction(1 if i == j else 0) for j in range(n)]
        for i, row in enumerate(a.rows)
    ]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col] != 0), None)
        if piv is None:
            raise SingularMatrixError(col)
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
        pv = work[col][col]
        work[col] = [x / pv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return Mat([row[n:] for row in work])


def frob_sq(a):
    """Squared Frobenius norm: the sum of the squares of the entries."""
    acc = Fraction(0)
    for x in a.entries():
        acc = acc + x * x
    return acc


def is_orthogonal(a):
    return a.T @ a == Mat.identity(a.n)


def mat_to_json(a):
    """JSON-ready dict: {"n": n, "entries": [[elem strings]]}."""
    return {
        "n": a.n,
        "entries": [[format_elem(x) for x in row] for row in a.rows],
    }


def mat_from_json(obj):
    """Inverse of `mat_to_json`; entries must be grammar strings."""
    if not isinstance(obj, dict) or "n" not in obj or "entries" not in obj:
        raise ValueError('matrix JSON must be {"n": ..., "entries": [[...]]}')
    n = obj["n"]
    entries = obj["entries"]
    if type(n) is not int or not isinstance(entries, list) or len(entries) != n:
        raise ValueError("matrix JSON: 'entries' must be an n-list of n-lists")
    rows = []
    for row in entries:
        if not isinstance(row, list) or len(row) != n:
            raise ValueError("matrix JSON: 'entries' must be an n-list of n-lists")
        if not all(isinstance(s, str) for s in row):
            raise ValueError("matrix JSON: entries must be strings")
        rows.append([parse_elem(s) for s in row])
    return Mat(rows)
