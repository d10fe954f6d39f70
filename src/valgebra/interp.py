"""Exact polynomial interpolation on integer grids."""

from __future__ import annotations

from fractions import Fraction

from .polynomials import Polynomial


def univariate_coeffs(values: list[Fraction]) -> list[Fraction]:
    """Monomial coefficients of the polynomial with values at 0, 1, ..., m-1."""
    m = len(values)
    # Newton divided differences at integer nodes.
    dd = [Fraction(v) for v in values]
    for k in range(1, m):
        for i in range(m - 1, k - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / k
    # Expand sum_k dd[k] * x(x-1)...(x-k+1) into monomials.
    coeffs = [Fraction(0)] * m
    basis = [Fraction(1)]  # coefficients of the running falling factorial
    for k in range(m):
        for j, b in enumerate(basis):
            coeffs[j] += dd[k] * b
        new = [Fraction(0)] * (len(basis) + 1)
        for j, b in enumerate(basis):
            new[j + 1] += b
            new[j] -= k * b
        basis = new
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def tensor_interpolate(values, degrees: list[int]) -> Polynomial:
    """Exact polynomial through values on the grid prod_i {0..degrees[i]}.

    `values` is a nested list, axis i indexed by 0..degrees[i].  Returns a
    Polynomial in len(degrees) variables.  The axes are interpolated one at
    a time: after axis i, index i of each key is an exponent.
    """
    s = len(degrees)
    if s == 0:
        return Polynomial.constant(0, values)
    table = {(): values}
    for _ in degrees:
        table = {key + (i,): v for key, vals in table.items() for i, v in enumerate(vals)}
    for axis, deg in enumerate(degrees):
        lines: dict[tuple[int, ...], list[Fraction]] = {}
        for key, v in table.items():
            lines.setdefault(key[:axis] + key[axis + 1 :], [Fraction(0)] * (deg + 1))[key[axis]] = Fraction(v)
        table = {
            rest[:axis] + (k,) + rest[axis:]: c
            for rest, line in lines.items()
            for k, c in enumerate(univariate_coeffs(line))
            if c != 0
        }
    return Polynomial(s, table)
