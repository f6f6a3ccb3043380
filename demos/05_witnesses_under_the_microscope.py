"""Build a homotopy witness, serialize it, verify it, then break it.

Verification is independent of construction: the verifier re-derives
every clause from the witness data and the two endpoint sections, so a
tampered witness fails with the clause that actually broke.
"""

import json

from nodalwitness.farey import INF, Slope, ZERO
from nodalwitness.homotopy import (
    GammaData,
    SectionData,
    build_ghost_witness,
    build_straightline,
    witness_from_json,
    witness_to_json,
)
from nodalwitness.localring import MODEL_DVR, parse_element
from nodalwitness.surface import NodalSurface
from nodalwitness.verify import verify_witness

dvr = lambda t: parse_element(t, MODEL_DVR)

X = NodalSurface((ZERO, Slope(1, 1), INF))
g = GammaData(dvr("x^2"))
s1 = SectionData(g, dvr("x"))
s2 = SectionData(g, dvr("x + x^2"))

w = build_ghost_witness(s1, s2)
blob = witness_to_json(w)
print("witness JSON:")
print(json.dumps(blob, indent=2))
print()

print("verification report:")
print(verify_witness(X, g, w, (s1, s2)))
print()

# round-trip through JSON and tamper with the gluing data
tampered = json.loads(json.dumps(blob))
tampered["h1"]["S"] = "2*x"
bad = witness_from_json(tampered, MODEL_DVR)
report = verify_witness(X, g, bad, (s1, s2))
print("after doubling the S coefficient of h1:")
print(report)
print("accepted?", report.ok)
print()

# straight lines are the degenerate case: both sections multiples of r0
t1 = SectionData(g, dvr("x^2"))
t2 = SectionData(g, dvr("2*x^2"))
line = build_straightline(t1, t2)
print("straight-line witness between x^2 and 2*x^2:")
print(verify_witness(X, g, line, (t1, t2)))
