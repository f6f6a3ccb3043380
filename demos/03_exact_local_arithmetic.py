"""Exact arithmetic in the two base models.

Model "dvr": truncated power series in x over Q, with an exactness bit so
polynomials stay polynomials.  Model "bivariate": the local ring at the
origin of the (u, v)-plane, where ideal questions go through Groebner
bases.  Everything is rational arithmetic; nothing is floating point.
"""

from nodalwitness.errors import RootUnavailable
from nodalwitness.localring import (
    IdealHandle,
    MODEL_BIVARIATE,
    MODEL_DVR,
    element_to_text,
    ideal_membership,
    nth_root_unit,
    parse_element,
    radical_membership,
)

dvr = lambda t: parse_element(t, MODEL_DVR)
biv = lambda t: parse_element(t, MODEL_BIVARIATE)

a = dvr("x^2 + 3*x^3")
b = dvr("2*x + x^2")
q = a.divide_in_ring(b)
print(f"({element_to_text(a)}) / ({element_to_text(b)})")
print("  =", element_to_text(q))
print("order:", q.order(), " unit:", q.is_unit())
print("residue of 1/2 + x:", dvr("1/2 + x").residue())

u = dvr("1 + 4*x")
r = nth_root_unit(u, 2)
print(f"sqrt({element_to_text(u)}) = {element_to_text(r)}")
print("check:", element_to_text(r * r))

# the root exists only when the leading coefficient has one in Q
try:
    nth_root_unit(dvr("2 + x"), 2)
except RootUnavailable as exc:
    print("sqrt(2 + x) ->", exc)
print()

f = biv("u*v + v^3")
I = IdealHandle([biv("u^2"), biv("v^2")])
print("f =", element_to_text(f))
print("f in <u^2, v^2>      :", ideal_membership(f, I))
print("f in rad <u^2, v^2>  :", radical_membership(f, I))
print("u in rad <u^2, v^2>  :", radical_membership(biv("u"), I))
