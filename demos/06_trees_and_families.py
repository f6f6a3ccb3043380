"""General centers: blowup trees, normalization, covers, and families.

Nodal chains only capture blowups at intersection points.  A blowup tree
records arbitrary infinitely near centers - free points on exceptional
lines, several root points on the original fiber - and `decide_general`
extends the homotopy decision to that setting.  `partition_classes`
then splits a whole family of sections into connected classes.
"""

import json

from nodalwitness.blowuptree import (
    normalize_pure_nodes,
    pullback_tree,
    tree_from_json,
    tree_to_json,
)
from nodalwitness.homotopy import (
    GammaData,
    SectionData,
    decide_general,
    partition_classes,
)
from nodalwitness.localring import MODEL_DVR, parse_element
from nodalwitness.surface import NodalSurface

dvr = lambda t: parse_element(t, MODEL_DVR)

# a tree over the zero point: first a node blowup, then a free point 3/2
# on the new exceptional line
t = tree_from_json(
    {
        "roots": [
            {
                "base": "[0:1]",
                "children": [{"at": "node-left"}, {"at": {"free": "3/2"}}],
            }
        ]
    }
)
largest = max(r.size() for r in t.roots)
print("tree:", t, " fiber-component budget (largest root's size) =", largest)

X, residual = normalize_pure_nodes(t)
print("pure-node part becomes the chain:", [str(s) for s in X.lines])
print("residual free centers:", json.dumps(tree_to_json(residual)))
print()

# pulling back along a degree-2 base cover replicates each root over the
# rational preimages of its coordinate
t2 = tree_from_json({"roots": [{"base": "[4:1]"}, {"base": "[1:0]"}]})
print("pullback of roots at 4 and infinity along mu -> mu^2:")
print(json.dumps(tree_to_json(pullback_tree(t2, 2))))
print()

# two sections split by a multi-point center: constant sections through 1
# and 2 stay away from both blown-up points, but on the blowup they hit
# different components of the avoided locus
split = tree_from_json({"roots": [{"base": "[0:1]"}, {"base": "[1:0]"}]})
g = GammaData(dvr("x^2"))
r = SectionData(g, dvr("1"))
rp = SectionData(g, dvr("2"))
v = decide_general(split, r, rp)
print("decide_general on the two-root tree:", type(v).__name__)
print("  reason:", v.reason)
print()

# family bookkeeping: four sections, two classes
secs = [
    SectionData(g, dvr(t))
    for t in ("x", "x + x^2", "2*x", "2*x + x^2")
]
part = partition_classes(tree_from_json({"roots": [{"base": "[0:1]"}]}), g, secs)
print("classes:", part.classes, " undecided:", part.undecided)
