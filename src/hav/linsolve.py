"""Exact linear constraint solving over the rationals.

Decides conjunctions of linear (in)equalities by equality substitution
followed by Fourier-Motzkin elimination with a strictness bit; combining a
strict bound with a non-strict one stays strict. On success produces one
witness, choosing the midpoint of each variable's residual interval (strict
endpoints nudged inward by half the gap).

Equalities are taken in row order, each solved for its highest-numbered
variable. An index from each variable to the rows that still mention it
lets the substitution visit only those rows, not the whole system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

LE, LT, EQ = "<=", "<", "="


@dataclass(frozen=True)
class LinearConstraint:
    """sum coeffs[i] * x_i  op  rhs  with op in {<=, <, =}."""

    coeffs: tuple[tuple[int, Fraction], ...]
    op: str
    rhs: Fraction

    def __str__(self) -> str:
        lhs = " + ".join(f"{c}*t{i}" for i, c in self.coeffs) or "0"
        return f"{lhs} {self.op} {self.rhs}"


def _sparse(coeffs: dict[int, Fraction]) -> tuple[tuple[int, Fraction], ...]:
    return tuple(sorted((i, c) for i, c in coeffs.items() if c != 0))


@dataclass
class Solution:
    values: list[Fraction]
    #: residual (lo, hi) interval per variable at substitution time;
    #: None endpoints mean unbounded. Equality-pinned variables are (v, v).
    intervals: list[tuple[Optional[Fraction], Optional[Fraction]]]

    def unique(self) -> bool:
        return all(lo is not None and lo == hi for lo, hi in self.intervals)


@dataclass
class LinearSystem:
    """Conjunction of linear constraints over variables x_0 .. x_{n-1}."""

    nvars: int
    constraints: list[LinearConstraint] = field(default_factory=list)

    def add(self, coeffs: dict[int, Fraction], op: str, rhs) -> None:
        rhs = Fraction(rhs)
        coeffs = {i: Fraction(c) for i, c in coeffs.items()}
        if any(i < 0 or i >= self.nvars for i in coeffs):
            raise ValueError("constraint references an undeclared variable")
        if op in (">=", ">"):
            coeffs = {i: -c for i, c in coeffs.items()}
            rhs = -rhs
            op = LE if op == ">=" else LT
        if op not in (LE, LT, EQ):
            raise ValueError(f"bad operator {op!r}")
        self.constraints.append(LinearConstraint(_sparse(coeffs), op, rhs))

    def solve(self) -> Optional[Solution]:
        """One exact witness, or None when the conjunction is unsatisfiable."""
        rows = [[dict(c.coeffs), c.op, c.rhs] for c in self.constraints]
        # variable -> ids of the rows not yet taken as equalities that mention it
        occurs: dict[int, set[int]] = {}
        for r, (coeffs, _, _) in enumerate(rows):
            for i in coeffs:
                occurs.setdefault(i, set()).add(r)

        # equality substitution: x_k = (rhs - rest)/coef
        substitutions: list[tuple[int, dict[int, Fraction], Fraction]] = []
        for r, (coeffs, op, rhs) in enumerate(rows):
            if op != EQ:
                continue
            for i in coeffs:
                occurs[i].discard(r)
            if not coeffs:
                if rhs != 0:
                    return None
                continue
            k = max(coeffs)
            ck = coeffs.pop(k)
            expr = {i: -c / ck for i, c in coeffs.items()}
            const = rhs / ck
            substitutions.append((k, expr, const))

            # substitute x_k := expr + const into the rows that mention it
            for s in occurs.pop(k, ()):
                row = rows[s]
                rc = row[0]
                f = rc.pop(k)
                for i, c in expr.items():
                    old = rc.get(i)
                    if old is None:
                        rc[i] = f * c
                        occurs.setdefault(i, set()).add(s)
                        continue
                    nc = old + f * c
                    if nc == 0:
                        del rc[i]
                        occurs[i].discard(s)
                    else:
                        rc[i] = nc
                row[2] -= f * const
        inequalities = [row for row in rows if row[1] != EQ]

        # Fourier-Motzkin on the inequalities
        eliminated_vars = sorted({i for c, _, _ in inequalities for i in c}, reverse=True)
        bounds: dict[int, tuple[list, list]] = {}
        current = inequalities
        for k in eliminated_vars:
            lowers, uppers, rest = [], [], []
            for coeffs, op, rhs in current:
                ck = coeffs.get(k)
                if not ck:
                    rest.append((coeffs, op, rhs))
                    continue
                expr = {i: -c / ck for i, c in coeffs.items() if i != k}
                const = rhs / ck
                if ck > 0:
                    uppers.append((expr, const, op))  # x_k op const + expr
                else:
                    lowers.append((expr, const, op))  # x_k flip(op) const + expr
            bounds[k] = (lowers, uppers)
            for lexpr, lconst, lop in lowers:
                for uexpr, uconst, uop in uppers:
                    coeffs = dict(lexpr)
                    for i, c in uexpr.items():
                        nc = coeffs.get(i, Fraction(0)) - c
                        if nc == 0:
                            coeffs.pop(i, None)
                        else:
                            coeffs[i] = nc
                    op = LT if LT in (lop, uop) else LE
                    rest.append((coeffs, op, uconst - lconst))
            current = rest

        for coeffs, op, rhs in current:
            if coeffs:
                raise AssertionError("Fourier-Motzkin left a variable in a row")
            if op == LE and not rhs >= 0:
                return None
            if op == LT and not rhs > 0:
                return None

        values: dict[int, Fraction] = {}
        intervals: dict[int, tuple[Optional[Fraction], Optional[Fraction]]] = {}

        def evaluate(expr: dict[int, Fraction], const: Fraction) -> Fraction:
            return const + sum((c * values[i] for i, c in expr.items()), Fraction(0))

        for k in reversed(eliminated_vars):
            lowers, uppers = bounds[k]
            lo = hi = None
            lo_strict = hi_strict = False
            for expr, const, op in lowers:
                v = evaluate(expr, const)
                if lo is None or v > lo or (v == lo and op == LT):
                    lo, lo_strict = v, op == LT
            for expr, const, op in uppers:
                v = evaluate(expr, const)
                if hi is None or v < hi or (v == hi and op == LT):
                    hi, hi_strict = v, op == LT
            intervals[k] = (lo, hi)
            if lo is None and hi is None:
                values[k] = Fraction(0)
            elif hi is None:
                values[k] = lo + 1 if lo_strict else lo
            elif lo is None:
                values[k] = hi - 1 if hi_strict else hi
            elif lo == hi:
                values[k] = lo
            else:
                values[k] = (lo + hi) / 2

        for k, expr, const in reversed(substitutions):
            v = const + sum((c * values.get(i, Fraction(0)) for i, c in expr.items()), Fraction(0))
            values[k] = v
            intervals[k] = (v, v)

        out_values = [values.get(i, Fraction(0)) for i in range(self.nvars)]
        out_intervals = [intervals.get(i, (None, None)) for i in range(self.nvars)]
        sol = Solution(out_values, out_intervals)
        if not self.satisfied_by(sol.values):  # raised, not asserted: kept under `python -O`
            raise AssertionError("witness must satisfy every constraint")
        return sol

    def satisfied_by(self, values: list[Fraction]) -> bool:
        for c in self.constraints:
            lhs = sum((coef * values[i] for i, coef in c.coeffs), Fraction(0))
            ok = lhs <= c.rhs if c.op == LE else lhs < c.rhs if c.op == LT else lhs == c.rhs
            if not ok:
                return False
        return True
