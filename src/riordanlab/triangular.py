"""Invertible lower-triangular matrices and graded polynomial sequences.

Row n of a matrix holds the coefficients of the n-th polynomial of a
sequence (constant term first); matrix multiplication then realizes
umbral composition of sequences.  A matrix is *graded* when every
diagonal entry is nonzero, i.e. when the sequence has deg p_n = n.
"""

from __future__ import annotations

from operator import mul

from .errors import BackendMismatch, DegreeTooHigh, SingularDiagonal
from .scalars import Field, Scalar, _Q
from .series import _over_common_denominator, check_order


class Polynomial:
    """Dense polynomial in x; coefficients ascending, trailing zeros trimmed."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        for c in coeffs:
            if not isinstance(c, Scalar) or c.p != field.p:
                raise BackendMismatch(f"coefficient {c!r} does not belong to {field}")
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
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            cs = str(c)
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

    def __repr__(self):
        return f"Polynomial({self})"


class TriMatrix:
    """Lower-triangular square matrix; row n stores entries (n,0)..(n,n)."""

    __slots__ = ("field", "rows")

    def __init__(self, field: Field, rows):
        rows = tuple(tuple(r) for r in rows)
        check_order(len(rows))
        for n, row in enumerate(rows):
            if len(row) != n + 1:
                raise ValueError(f"row {n} must have {n + 1} entries, got {len(row)}")
            for c in row:
                if not isinstance(c, Scalar) or c.p != field.p:
                    raise BackendMismatch(f"entry {c!r} does not belong to {field}")
        self.field = field
        self.rows = rows

    # -- constructors ----------------------------------------------------
    @classmethod
    def identity(cls, field, order):
        one, zero = field.one(), field.zero()
        return cls(field, [[zero] * n + [one] for n in range(order)])

    @classmethod
    def zero(cls, field, order):
        zero = field.zero()
        return cls(field, [[zero] * (n + 1) for n in range(order)])

    @classmethod
    def diagonal(cls, field, entries):
        zero = field.zero()
        return cls(
            field,
            [[zero] * n + [field.scalar(d)] for n, d in enumerate(entries)],
        )

    @classmethod
    def from_entries(cls, field, order, entry_fn):
        """entry_fn(n, k) -> Scalar for 0 <= k <= n < order."""
        return cls(field, [[entry_fn(n, k) for k in range(n + 1)] for n in range(order)])

    # -- basics ----------------------------------------------------------
    @property
    def order(self) -> int:
        return len(self.rows)

    def entry(self, n: int, k: int) -> Scalar:
        if k > n:
            return self.field.zero()
        return self.rows[n][k]

    def column(self, k: int) -> list[Scalar]:
        return [self.entry(n, k) for n in range(self.order)]

    def is_graded(self) -> bool:
        """True when every diagonal entry is nonzero (group membership)."""
        return all(row[n] for n, row in enumerate(self.rows))

    def is_strictly_lower(self) -> bool:
        return not any(row[n] for n, row in enumerate(self.rows))

    def _check_same(self, other):
        if not isinstance(other, TriMatrix):
            raise BackendMismatch(f"expected TriMatrix, got {type(other).__name__}")
        if other.field != self.field or other.order != self.order:
            raise BackendMismatch("matrix orders or fields differ")

    # -- arithmetic --------------------------------------------------------
    def __matmul__(self, other):
        # Each entry is one dot product of a row of self with a column of
        # other, on Python ints: over GF(p) residues reduced once per entry;
        # over QQ every row and column over its own common denominator, so
        # only the output entry is normalised.
        self._check_same(other)
        p, n = self.field.p, self.order
        cols = [[other.rows[j][k] for j in range(k, n)] for k in range(n)]
        if p is None:
            left = [_over_common_denominator(row) for row in self.rows]
            right = [_over_common_denominator(col) for col in cols]
            out = [
                [Scalar(_Q(sum(map(mul, a[k:], b)), da * db))
                 for k, (b, db) in enumerate(right[: i + 1])]
                for i, (a, da) in enumerate(left)
            ]
        else:
            left = [[c.val for c in row] for row in self.rows]
            right = [[c.val for c in col] for col in cols]
            out = [
                [Scalar(sum(map(mul, a[k:], b)) % p, p) for k, b in enumerate(right[: i + 1])]
                for i, a in enumerate(left)
            ]
        return TriMatrix(self.field, out)

    def __add__(self, other):
        self._check_same(other)
        return TriMatrix(
            self.field,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
        )

    def __sub__(self, other):
        self._check_same(other)
        return TriMatrix(
            self.field,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
        )

    def __neg__(self):
        return TriMatrix(self.field, [[-a for a in row] for row in self.rows])

    def scale(self, c: Scalar):
        return TriMatrix(self.field, [[c * a for a in row] for row in self.rows])

    def inverse(self):
        """Inverse by forward substitution, column by column; exact.

        Column k solves A x = e_k: x_k = 1 / a_{k,k} and, below it,
        x_i = -(sum_{k <= j < i} a_{i,j} x_j) / a_{i,i}.  The dot products
        run on the raw values: residues over GF(p), rationals over QQ.
        """
        n, p = self.order, self.field.p
        for i in range(n):
            if not self.rows[i][i]:
                raise SingularDiagonal(f"diagonal entry ({i},{i}) vanishes")
        vals = [[c.val for c in row] for row in self.rows]
        if p is None:
            diag_inv = [1 / row[i] for i, row in enumerate(vals)]
        else:
            diag_inv = [pow(row[i], p - 2, p) for i, row in enumerate(vals)]
        cols = []
        for k in range(n):
            x = [diag_inv[k]]
            for i in range(k + 1, n):
                v = -sum(map(mul, vals[i][k:i], x)) * diag_inv[i]
                x.append(v if p is None else v % p)
            cols.append([Scalar(v, p) for v in x])
        return TriMatrix(self.field, [[cols[k][i - k] for k in range(i + 1)] for i in range(n)])

    def commutes_with(self, other) -> bool:
        return self @ other == other @ self

    # -- plumbing ----------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, TriMatrix):
            return NotImplemented
        return self.field == other.field and self.rows == other.rows

    def __hash__(self):
        return hash((self.field, self.rows))

    def __repr__(self):
        return f"TriMatrix(order={self.order}, field={self.field})"

    def to_json(self):
        return [[str(c) for c in row] for row in self.rows]

    @classmethod
    def from_json(cls, field, data):
        return cls(field, [[field.parse(s) for s in row] for row in data])


# -- sequence <-> matrix correspondence -----------------------------------


def matrix_to_polys(A: TriMatrix) -> list[Polynomial]:
    """Rows of A as polynomials; graded iff A.is_graded()."""
    return [Polynomial(A.field, row) for row in A.rows]


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
    """
    if len(ps) != len(qs):
        raise ValueError("sequences must have equal length")
    order = len(ps)
    field = ps[0].field
    zero = field.zero()
    out = []
    for n, p in enumerate(ps):
        if p.degree > n:
            raise DegreeTooHigh(f"deg p_{n} = {p.degree} > {n}")
        acc = [zero] * order
        for k in range(min(p.degree, order - 1) + 1):
            a = p.coeff(k)
            if not a:
                continue
            for j, qc in enumerate(qs[k].coeffs):
                acc[j] = acc[j] + a * qc
        out.append(Polynomial(field, acc))
    return out


def apply_matrix_to_poly(S: TriMatrix, p: Polynomial) -> Polynomial:
    """Linear extension of x^n -> sum_k S_{n,k} x^k."""
    if p.degree >= S.order:
        raise DegreeTooHigh(f"deg p = {p.degree} >= order {S.order}")
    zero = S.field.zero()
    acc = [zero] * S.order
    for n, c in enumerate(p.coeffs):
        if not c:
            continue
        for k, s in enumerate(S.rows[n]):
            acc[k] = acc[k] + c * s
    return Polynomial(S.field, acc)
