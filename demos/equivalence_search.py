"""Finding explicit substitutions between equivalent forms, and rebasing.

Two forms are equivalent when some invertible substitution carries one
onto the other modulo lower-degree terms. The search is randomized but
verification is exact. Rebasing needs no search: the transversal of a
classification names a substitution carrying any form onto its class
representative, which rewrites a representative e' + f' x over that base
form without changing its coset enumerator.

Run:  python demos/equivalence_search.py
"""

import random

from rmenum.boolfn import attach_top, decompose_top, format_anf, parse_anf
from rmenum.classify import ClassRecord, QuotientClassification
from rmenum.cosetenum import batch_coset_enumerators
from rmenum.gf2 import AffineMap, find_equivalence, transform_anf
from rmenum.pipeline import rebase_representatives

rng = random.Random(0)

print("search: carry x1x2x3 onto x1x4x5 over GF(2)^5")
e1, e2 = parse_anf("123", 5), parse_anf("145", 5)
mat = find_equivalence(e1, e2, 2, 200000, rng)
print("  found matrix rows:", mat.to_text())
diff = transform_anf(e1, AffineMap(mat, 0)) ^ e2
print("  (e1 o A) + e2 reduced to degree", diff.degree())

print("\nno luck across classes: x1x2x3 vs x1x2x3 + x1x4x5 (different orbits)")
out = find_equivalence(e1, parse_anf("123+145", 5), 2, 2000, rng)
print("  search result within 2000 tries:", out)

print("\nrebasing a representative e' + f' x6 onto its lower class representative:")
rec = ClassRecord(rep=attach_top(parse_anf("145", 5), parse_anf("12", 5)), size=1)
lower = QuotientClassification.compute(3, 5)
new = rebase_representatives([rec], lower)[0]
e_new, _ = decompose_top(new.rep)
print(f"  old rep {format_anf(rec.rep)}")
print(f"  new rep {format_anf(new.rep)} (lower part now {format_anf(e_new)})")
old_enum, new_enum = batch_coset_enumerators([rec.rep, new.rep], 2, 6)
print("  coset enumerator unchanged:", old_enum == new_enum)
