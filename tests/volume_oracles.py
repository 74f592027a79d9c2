"""Fraction routes for the volume oracle, the volume polynomial's values and
its polarization.

The library computes all three on integers: the oracle on an integer-scaled
support and the integer numerators of each vertex inverse, the polynomial's
values and mixed volumes on its integer numerators.  These are the routes
it used before, coefficient by coefficient on ``fractions.Fraction``, kept
as oracles that the integer routes must match exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from hlmod import polytopes
from hlmod.exact import MultiPoly, integer_rows
from hlmod.polytopes import PolytopeError, SimplePolytope, VolumePolynomial


def _dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b) if x), Fraction(0))


def fraction_volume_oracle(p: SimplePolytope, support) -> Fraction:
    """The triangulation oracle with Fraction vertices A_S^{-1} x_S and a
    Fraction slack-form test."""
    x = tuple(Fraction(c) for c in support)
    if len(x) != p.facet_count:
        raise PolytopeError("combinatorics-changed", "support length mismatch")
    if any(_dot(form, x) <= 0 for form in p.slack_forms):
        raise PolytopeError("combinatorics-changed", "vertex-facet incidences differ")
    vertices = []
    for inc in p.incidences:
        facets = tuple(sorted(inc))
        vertices.append(p.cones[facets][0].apply([x[j] for j in facets]))
    points, d = integer_rows(vertices)
    dets = (s * polytopes._simplex_det(points, sigma) for sigma, s in zip(p.triangulation, p.orientations))
    return Fraction(sum(dets), d**p.dim * factorial(p.dim))


def fraction_evaluate(f: MultiPoly, values) -> Fraction:
    """f at ``values``, term by term on Fractions."""
    if len(values) != f.nvars:
        raise ValueError("value count mismatch")
    total = Fraction(0)
    for e, c in f.terms.items():
        term = c
        for x, p in zip(values, e):
            if p:
                term = term * (Fraction(x) ** p)
        total += term
    return total


def poly_diff(f: MultiPoly, i: int) -> MultiPoly:
    """The partial derivative of f in variable i."""
    out: dict[tuple, Fraction] = {}
    for e, c in f.terms.items():
        if e[i]:
            key = e[:i] + (e[i] - 1,) + e[i + 1 :]
            out[key] = out.get(key, Fraction(0)) + c * e[i]
    return MultiPoly(f.nvars, out)


def fraction_mixed_volume(nu: VolumePolynomial, supports) -> Fraction:
    """The polarization of ``nu.poly``: each support c applied as the
    operator sum_i c_i d_i on Fraction coefficients, the constant over k!."""
    if len(supports) != nu.dim:
        raise ValueError(f"need exactly {nu.dim} support vectors")
    f = nu.poly
    for c in supports:
        c = [Fraction(e) for e in c]
        if len(c) != nu.facets:
            raise ValueError("support vector length mismatch")
        out = MultiPoly.zero(f.nvars)
        for i, ci in enumerate(c):
            if ci:
                out = out + poly_diff(f, i) * ci
        f = out
    return f.constant_term() / factorial(nu.dim)
