"""Deciding when two sections are connected.

A family of sections is pinned down by gamma data (the value r0 that the
degenerating coordinate takes on the base) together with one value r per
section.  Two sections of the blown-up surface either can or cannot be
joined by a family of maps from the affine line; `decide_nodal` answers
with a verdict object that carries its own evidence.
"""

import json

from nodalwitness.farey import INF, Slope, ZERO
from nodalwitness.homotopy import (
    GammaData,
    SectionData,
    closed_point_image,
    decide_nodal,
    location_slopes,
    shift_section,
    verdict_to_json,
)
from nodalwitness.localring import MODEL_DVR, parse_element
from nodalwitness.surface import NodalSurface

dvr = lambda t: parse_element(t, MODEL_DVR)

X = NodalSurface((ZERO, Slope(1, 1), INF))
g = GammaData(dvr("x^2"))

print("Where does a section land on the special fiber?")
for text in ("1", "x", "x^2", "x^3"):
    s = SectionData(g, dvr(text))
    loc = closed_point_image(X, s)
    slopes = sorted(str(t) for t in location_slopes(loc))
    print(f"  r = {text:>3}: {type(loc).__name__} at slopes {slopes}")
print()

# Same valuation, multiplicatively nearby values: connected, and the
# verdict carries a machine-checkable witness.
s1 = SectionData(g, dvr("x"))
s2 = SectionData(g, dvr("x + x^2"))
v = decide_nodal(X, s1, s2)
print("x vs x + x^2:", type(v).__name__, "at level", v.level)
print(json.dumps(verdict_to_json(v), indent=2)[:400], "...")
print()

# Multiplying by a constant other than 1 moves the section to a different
# point of the rigid middle line: not connected, with the obstruction shown.
v2 = decide_nodal(X, s1, SectionData(g, dvr("2*x")))
print("x vs 2*x:", type(v2).__name__)
print(json.dumps(verdict_to_json(v2), indent=2))
print()

# Dividing both values by r0 shifts the whole picture one step down the
# chain; the smaller chain sees the same relative geometry.
s3 = SectionData(g, dvr("x^2"))
s4 = SectionData(g, dvr("x^2 + x^3"))
t3, t4 = shift_section(s3, 1), shift_section(s4, 1)
print("shift by one step divides values by r0:")
print("  orders before:", s3.r.order(), s4.r.order())
print("  orders after: ", t3.r.order(), t4.r.order())
