"""Divisor supports on a chain, and untwisting fractional slopes.

For a slope s = a/b with 0 < s <= 1 the monomial x^a/y^b cuts a divisor
on the blown-up surface.  `divisor_support` reports which chain lines
carry its zeros and which carry its poles; that bookkeeping is what the
homotopy criteria consume.
"""

from fractions import Fraction

from nodalwitness.farey import Slope
from nodalwitness.surface import NodalSurface, etale_cover_degree

X = NodalSurface.p1().blowup_node(0).blowup_node(0)
print("surface:", [str(s) for s in X.lines])

for s in (Slope(1, 2), Slope(1, 1)):
    zeros = sorted(X.divisor_support(s, "zeros"))
    poles = sorted(X.divisor_support(s, "poles"))
    print(f"slope {s}: zeros {zeros}")
    print(f"        poles {poles}")
print()

# The marker l_-inf stands for the negative section of the ruling; it is
# always on the zero side and never a chain line.

# N' is the range where every finite slope stays at most 1; one blowup of
# the top node already leaves it.
print("membership in the good range N':")
for Y in (
    NodalSurface.p1(),
    NodalSurface.p1().blowup_node(0),
    NodalSurface.p1().blowup_node(0).blowup_node(0),
    NodalSurface.p1().blowup_node(0).blowup_node(1),
):
    print(f"  {[str(s) for s in Y.lines]} -> {Y.is_in_Nprime()}")
print()

# A section sitting at a fractional slope a/b can be pushed to an integer
# slope by a degree-b base cover.  The degree only depends on the reduced
# denominator.
print("untwisting degrees:")
for a, b in ((1, 2), (2, 3), (3, 4), (4, 6)):
    t = Slope(Fraction(a, b).numerator, Fraction(a, b).denominator)
    print(f"  slope {a}/{b} -> degree {etale_cover_degree(t)} cover")
