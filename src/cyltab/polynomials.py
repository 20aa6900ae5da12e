"""Sparse multivariate polynomials with exact nonnegative integer coefficients."""

from __future__ import annotations

from operator import add

from .errors import CyltabError, Record


class PolynomialError(CyltabError):
    pass


class SparsePolynomial:
    """Map from exponent vectors (fixed arity) to integer coefficients.

    Zero coefficients are never stored.  Coefficients are Python ints, so
    all arithmetic is exact.
    """

    __slots__ = ("arity", "_coeffs")

    def __init__(self, arity: int, coeffs: dict[tuple[int, ...], int] | None = None):
        self.arity = arity
        # One C-level copy, never the caller's dict; zero terms go before the arity check.
        self._coeffs = out = dict(coeffs) if coeffs else {}
        if 0 in out.values():
            self._coeffs = out = {e: c for e, c in out.items() if c != 0}
        if out and set(map(len, out)) != {arity}:
            exps = next(e for e in out if len(e) != arity)
            raise PolynomialError(f"exponent vector {exps} has arity != {arity}")

    @staticmethod
    def zero(arity: int) -> "SparsePolynomial":
        return SparsePolynomial(arity)

    @staticmethod
    def one(arity: int) -> "SparsePolynomial":
        return SparsePolynomial(arity, {(0,) * arity: 1})

    @staticmethod
    def monomial(exps: tuple[int, ...], coeff: int = 1) -> "SparsePolynomial":
        return SparsePolynomial(len(exps), {tuple(exps): coeff})

    def coefficient(self, exps: tuple[int, ...]) -> int:
        return self._coeffs.get(tuple(exps), 0)

    def terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in sorted exponent order; canonical for golden comparisons."""
        return sorted(self._coeffs.items())

    def is_zero(self) -> bool:
        return not self._coeffs

    def __add__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        self._check(other)
        out = dict(self._coeffs)
        for exps, c in other._coeffs.items():
            s = out.get(exps, 0) + c
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return SparsePolynomial(self.arity, out)

    def __mul__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        self._check(other)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = tuple(map(add, e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return SparsePolynomial(self.arity, out)

    def scale(self, c: int) -> "SparsePolynomial":
        return SparsePolynomial(
            self.arity, {e: c * v for e, v in self._coeffs.items()}
        )

    def truncate(self, max_degree: int, variables: slice | None = None) -> "SparsePolynomial":
        """Drop terms whose degree in the selected variables exceeds max_degree."""
        sel = variables if variables is not None else slice(None)
        return SparsePolynomial(
            self.arity,
            {e: c for e, c in self._coeffs.items() if sum(e[sel]) <= max_degree},
        )

    def embed(self, arity: int, offset: int = 0) -> "SparsePolynomial":
        """Reinterpret in a larger variable set, shifting indices by offset."""
        if offset < 0 or offset + self.arity > arity:
            raise PolynomialError("embedding does not fit the target arity")
        pad_l = (0,) * offset
        pad_r = (0,) * (arity - offset - self.arity)
        return SparsePolynomial(
            arity, {pad_l + e + pad_r: c for e, c in self._coeffs.items()}
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return self.arity == other.arity and self._coeffs == other._coeffs

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for exps, c in self.terms():
            mono = "*".join(
                f"x{i+1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exps)
                if e
            )
            parts.append(f"{c}" if not mono else (mono if c == 1 else f"{c}*{mono}"))
        return " + ".join(parts)

    def _check(self, other: "SparsePolynomial") -> None:
        if self.arity != other.arity:
            raise PolynomialError(f"arity mismatch: {self.arity} vs {other.arity}")


class IdentityReport(Record, derived=("equal", "mismatches")):
    """Coefficientwise comparison of two polynomials."""

    lhs: SparsePolynomial
    rhs: SparsePolynomial
    equal: bool
    mismatches: tuple[tuple[tuple[int, ...], int, int], ...]

    def __post_init__(self) -> None:
        if not (isinstance(self.lhs, SparsePolynomial) and isinstance(self.rhs, SparsePolynomial)):
            sides = f"{type(self.lhs).__name__} and {type(self.rhs).__name__}"
            raise PolynomialError(f"both sides must be polynomials, got {sides}")
        self.lhs._check(self.rhs)  # sides in different variables would compare vacuously
        bad = []
        lhs, rhs = self.lhs._coeffs, self.rhs._coeffs
        if self.lhs is not self.rhs and lhs != rhs:
            for e in sorted(lhs.keys() | rhs.keys()):
                lc, rc = lhs.get(e, 0), rhs.get(e, 0)
                if lc != rc:
                    bad.append((e, lc, rc))
        object.__setattr__(self, "mismatches", tuple(bad))
        object.__setattr__(self, "equal", not bad)
