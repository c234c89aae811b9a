"""Invertible lower-triangular matrices and graded polynomial sequences.

Row n of a matrix holds the coefficients of the n-th polynomial of a
sequence (constant term first); matrix multiplication then realizes
umbral composition of sequences.  A matrix is *graded* when every
diagonal entry is nonzero, i.e. when the sequence has deg p_n = n.

A TriMatrix holds its raw columns from construction on, as a Series holds
its raw form.  A raw column is (ints, den): all N rows, zero above the
diagonal, as integers over one denominator over QQ and residues over 1
over GF(p), always in reduced form, den > 0 and gcd(ints..., den) = 1
(series._reduce).  That form is unique, and it is the form
series._ints_over_lcm gives normalised rationals, so the constructor reads
it off the Scalar rows it is given and a kernel's columns are the same:
== and hash read only the raw columns, and hashing a kernel-built matrix
builds no Scalar row.  The kernels of riordan.py return raw columns
(TriMatrix._from_columns, no Field.check) and build no Scalar: the rows
are a view, kept when the constructor was given them and otherwise built
from the columns on the first read of rows or entry, and kept.  to_json
reads the texts of the raw columns (series._texts) and builds no row, and
_poly_rows gives the rows of matrix_to_polys as text the same way;
Polynomial.__str__ and the CLI's polys both format through _poly_text.

Both kernels here read the raw columns: @ is series._apply_rows, the
columns of the left factor put over one denominator as rows (a transpose
over GF(p)) and applied to each column of the right factor from its
diagonal down, one integer dot product per entry and one series._reduce
per column, so it builds no Scalar; TriMatrix.inverse is
series._inverse_columns on the raw columns, the forward substitution on
those rows, one column per k, or over GF(p), where sums of N products of
residues fit 64-bit slots, a solve row by row on packed rows; it returns
the reduced raw columns it solves, and also solves V = U^{-1} for
operators._inverse_frame.
"""

from __future__ import annotations

import operator

from .errors import BackendMismatch, DegreeTooHigh, SingularDiagonal
from .scalars import Field, Scalar
from .series import (
    _apply_rows, _inverse_columns, _over_common_denominator, _rows_over_lcm, _texts, _wrap,
    check_order,
)


class Polynomial:
    """Dense polynomial in x; coefficients ascending, trailing zeros trimmed."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        coeffs = list(coeffs)
        field.check(coeffs, "coefficient")
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)

    @classmethod
    def from_values(cls, field, values):
        return cls(field, [field.scalar(v) for v in values])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def coeff(self, k: int) -> Scalar:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.field.zero()

    def evaluate(self, x: Scalar) -> Scalar:
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def constant_term(self) -> Scalar:
        return self.coeff(0)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __str__(self):
        return _poly_text([(k, str(c)) for k, c in enumerate(self.coeffs) if c])

    def __repr__(self):
        return f"Polynomial({self})"


def _poly_text(terms):
    """The text of a polynomial from the (k, text) pairs of its nonzero
    coefficients, k ascending: highest degree first, "0" for none."""
    if not terms:
        return "0"
    parts = []
    for k, cs in reversed(terms):
        if " " in cs:  # modular residues read better parenthesized
            cs = f"({cs})"
        if k == 0:
            parts.append(cs)
        else:
            xs = "x" if k == 1 else f"x^{k}"
            parts.append(xs if cs == "1" else f"{cs}*{xs}")
    out = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out


def _triangle_rows(rows):
    """Yield the rows of a triangle, after checking its order and, row by
    row, that row n has n + 1 entries; ValueError otherwise."""
    check_order(len(rows))
    for n, row in enumerate(rows):
        if len(row) != n + 1:
            raise ValueError(f"row {n} must have {n + 1} entries, got {len(row)}")
        yield row


class TriMatrix:
    """Lower-triangular square matrix; row n stores entries (n,0)..(n,n).

    A matrix holds its raw columns from construction on: read off the rows
    of Scalars a caller gives, or as a kernel built them (_from_columns).
    The rows are a read-only view, kept when given and otherwise built from
    the raw columns on their first read.
    """

    __slots__ = ("field", "_rows", "_cols")

    def __init__(self, field: Field, rows):
        rows = tuple([tuple(r) for r in rows])  # a list: see series._ints_over_lcm
        for row in _triangle_rows(rows):
            field.check(row, "entry")
        n = len(rows)
        cols = [_over_common_denominator(field, [row[k] for row in rows[k:]]) for k in range(n)]
        self.field, self._rows = field, rows
        self._cols = [([0] * k + ints, den) for k, (ints, den) in enumerate(cols)]

    @classmethod
    def _from_columns(cls, field, cols):
        """Wrap kernel output, unchecked: the N raw columns (ints, den) of a
        matrix of field, each listing all N rows, zero above the diagonal,
        in reduced form (series._reduce)."""
        out = object.__new__(cls)
        out.field, out._rows, out._cols = field, None, cols
        return out

    @property
    def rows(self) -> tuple:
        """The rows as tuples of Scalars, built from the raw columns once."""
        if self._rows is None:
            cols = [[None] * k + _wrap(self.field, ints[k:], den)
                    for k, (ints, den) in enumerate(self._cols)]
            self._rows = tuple([row[: i + 1] for i, row in enumerate(zip(*cols))])
        return self._rows

    def _columns(self) -> list:
        """The raw columns (ints, den), each listing all N rows, zero above
        the diagonal, in reduced form: integers over their least common
        denominator over QQ, residues over 1 over GF(p)."""
        return self._cols

    # -- constructors ----------------------------------------------------
    @classmethod
    def identity(cls, field, order):
        check_order(order)
        return cls.diagonal(field, [field.one()] * order)

    @classmethod
    def zero(cls, field, order):
        check_order(order)
        return cls.diagonal(field, [field.zero()] * order)

    @classmethod
    def diagonal(cls, field, entries):
        """The diagonal matrix of entries; their count is checked as the
        order before any is converted."""
        entries = list(entries)
        check_order(len(entries))
        zero = field.zero()
        return cls(field, [[zero] * n + [field.scalar(d)] for n, d in enumerate(entries)])

    @classmethod
    def from_entries(cls, field, order, entry_fn):
        """entry_fn(n, k) -> Scalar for 0 <= k <= n < order."""
        check_order(order)
        return cls(field, [[entry_fn(n, k) for k in range(n + 1)] for n in range(order)])

    # -- basics ----------------------------------------------------------
    @property
    def order(self) -> int:
        return len(self._cols)

    def entry(self, n: int, k: int) -> Scalar:
        """Entry (n, k) for 0 <= n, k < N: zero above the diagonal."""
        if not (0 <= n < self.order and 0 <= k < self.order):
            raise IndexError(f"entry ({n}, {k}) out of range")
        if k > n:
            return self.field.zero()
        return self.rows[n][k]

    def column(self, k: int) -> list[Scalar]:
        return [self.entry(n, k) for n in range(self.order)]

    def is_graded(self) -> bool:
        """True when every diagonal entry is nonzero (group membership)."""
        return all(col[k] for k, (col, _) in enumerate(self._columns()))

    def is_strictly_lower(self) -> bool:
        return not any(col[k] for k, (col, _) in enumerate(self._columns()))

    def _check_diagonal(self):
        """Raise SingularDiagonal at the first vanishing diagonal entry."""
        for i, (col, _) in enumerate(self._columns()):
            if not col[i]:
                raise SingularDiagonal(f"diagonal entry ({i},{i}) vanishes")

    def _check_same(self, other):
        if not isinstance(other, TriMatrix):
            raise BackendMismatch(f"expected TriMatrix, got {type(other).__name__}")
        if other.field != self.field or other.order != self.order:
            raise BackendMismatch("matrix orders or fields differ")

    # -- arithmetic --------------------------------------------------------
    def __matmul__(self, other):
        # The rows of self over one denominator applied to each column of
        # other from its diagonal down (series._apply_rows).
        self._check_same(other)
        table = _rows_over_lcm(self._columns())
        return TriMatrix._from_columns(self.field, _apply_rows(
            self.field, table, *[(b[k:], db) for k, (b, db) in enumerate(other._columns())]))

    def _combine(self, other, op):
        # op(a, b) for each pair of entries, into a new row-built matrix
        self._check_same(other)
        return TriMatrix(self.field, [list(map(op, r1, r2)) for r1, r2 in zip(self.rows, other.rows)])

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __neg__(self):
        return TriMatrix(self.field, [[-a for a in row] for row in self.rows])

    def scale(self, c: Scalar):
        return TriMatrix(self.field, [[c * a for a in row] for row in self.rows])

    def inverse(self):
        """Inverse by forward substitution, column by column; exact.

        Column k solves A x = e_k (_inverse_columns).  The result holds
        the raw columns the solver returns, and builds its rows on their
        first read.
        """
        self._check_diagonal()
        _, cols = _inverse_columns(self.field, self._columns())
        return TriMatrix._from_columns(
            self.field, [([0] * k + x, den) for k, (x, den) in enumerate(cols)])

    def commutes_with(self, other) -> bool:
        return self @ other == other @ self

    # -- plumbing ----------------------------------------------------------
    def __eq__(self, other):
        # Raw columns in reduced form are equal exactly when the matrices are.
        if not isinstance(other, TriMatrix):
            return NotImplemented
        return self.field == other.field and self._columns() == other._columns()

    def __hash__(self):
        return hash((self.field, tuple([(tuple(ints), den) for ints, den in self._columns()])))

    def __repr__(self):
        return f"TriMatrix(order={self.order}, field={self.field})"

    def to_json(self):
        # the texts of each raw column from its diagonal down, then a transpose
        p = self.field.p
        cols = [[None] * k + _texts(p, ints[k:], den) for k, (ints, den) in enumerate(self._cols)]
        return [list(row[: i + 1]) for i, row in enumerate(zip(*cols))]

    @classmethod
    def from_json(cls, field, data):
        return cls(field, [[field.parse(s) for s in row] for row in data])


# -- sequence <-> matrix correspondence -----------------------------------


def matrix_to_polys(A: TriMatrix) -> list[Polynomial]:
    """Rows of A as polynomials; graded iff A.is_graded()."""
    return [Polynomial(A.field, row) for row in A.rows]


def _poly_rows(A: TriMatrix) -> list:
    """The rows of matrix_to_polys(A) as text, read off the raw columns: for
    each row n, the texts of entries (n, 0..d), d its last nonzero entry,
    as Polynomial keeps them, and the (k, text) pairs of its nonzero
    entries, as _poly_text takes them."""
    cols, out = A._columns(), []
    texts = [_texts(A.field.p, ints[k:], den) for k, (ints, den) in enumerate(cols)]
    for n in range(A.order):
        terms = [(k, texts[k][n - k]) for k in range(n + 1) if cols[k][0][n]]
        out.append(([texts[k][n - k] for k in range(terms[-1][0] + 1 if terms else 0)], terms))
    return out


def polys_to_matrix(polys: list[Polynomial]) -> TriMatrix:
    """Inverse of matrix_to_polys; requires deg p_n <= n."""
    order = len(polys)
    check_order(order)
    field = polys[0].field
    rows = []
    for n, p in enumerate(polys):
        if p.degree > n:
            raise DegreeTooHigh(f"deg p_{n} = {p.degree} > {n}")
        rows.append([p.coeff(k) for k in range(n + 1)])
    return TriMatrix(field, rows)


def umbral_compose(ps: list[Polynomial], qs: list[Polynomial]) -> list[Polynomial]:
    """Substitute the sequence qs into the coefficient expansion of ps:
    r_n = sum_k a_{n,k} q_k where p_n = sum_k a_{n,k} x^k.

    Requires deg p_n <= n and deg q_k < N for sequences of length N.
    """
    if len(ps) != len(qs):
        raise ValueError("sequences must have equal length")
    order = len(ps)
    check_order(order)
    for k, q in enumerate(qs):
        if q.degree >= order:
            raise DegreeTooHigh(f"deg q_{k} = {q.degree} >= order {order}")
    field, vectors = ps[0].field, [q.coeffs for q in qs]
    out = []
    for n, p in enumerate(ps):
        if p.degree > n:
            raise DegreeTooHigh(f"deg p_{n} = {p.degree} > {n}")
        out.append(Polynomial(field, _linear_combination(field, order, p.coeffs, vectors)))
    return out


def apply_matrix_to_poly(S: TriMatrix, p: Polynomial) -> Polynomial:
    """Linear extension of x^n -> sum_k S_{n,k} x^k."""
    if p.degree >= S.order:
        raise DegreeTooHigh(f"deg p = {p.degree} >= order {S.order}")
    return Polynomial(S.field, _linear_combination(S.field, S.order, p.coeffs, S.rows))


def _linear_combination(field: Field, order: int, coeffs, vectors) -> list[Scalar]:
    """The `order` Scalars of sum_i c_i v_i over the pairs of coeffs and
    vectors, zero c_i skipped; a vector may be shorter than order.  Each
    product is c_i * x, so a coefficient of another field raises the
    BackendMismatch of that product."""
    acc = [field.zero()] * order
    for c, v in zip(coeffs, vectors):
        if c:
            for j, x in enumerate(v):
                acc[j] = acc[j] + c * x
    return acc
