"""Deciding form equivalence exactly, and rebasing.

Two forms are equivalent when some invertible substitution carries one
onto the other modulo lower-degree terms. The classification of the
top-degree forms decides the question: equivalent forms share a class, and
two transversals of that class name a substitution, which is checked before
it is returned. Rebasing uses the same transversals: one carries any form
onto its class representative, which rewrites a representative e' + f' x
over that base form without changing its coset enumerator.

Run:  python demos/equivalence_search.py
"""

import time

from rmenum.boolfn import attach_top, decompose_top, format_anf, parse_anf
from rmenum.classify import ClassRecord, QuotientClassification, equivalence
from rmenum.cosetenum import batch_coset_enumerators
from rmenum.gf2 import AffineMap, transform_anf
from rmenum.pipeline import rebase_representatives

print("equivalent: carry x1x2x3 onto x1x4x5 over GF(2)^5")
e1, e2 = parse_anf("123", 5), parse_anf("145", 5)
mat = equivalence(e1, e2)
print("  verified matrix rows:", mat.to_text())
diff = transform_anf(e1, AffineMap(mat, 0)) ^ e2
print("  (e1 o A) + e2 reduced to degree", diff.degree())

print("\nacross classes: x1x2x3 vs x1x2x3 + x1x4x5")
out = equivalence(e1, parse_anf("123+145", 5))
print("  not equivalent (a proof: the classes differ):", out is None)

print("\nrank-6 quadratics in 7 variables: x1x2+x3x4+x5x6 vs x1x3+x2x5+x4x6+x7")
start = time.perf_counter()
mat = equivalence(parse_anf("12+34+56", 7), parse_anf("13+25+46+7", 7))
print(f"  verified matrix rows: {mat.to_text()}")
print(f"  answered in {time.perf_counter() - start:.2f} s")

print("\nrebasing a representative e' + f' x6 onto its lower class representative:")
rec = ClassRecord(rep=attach_top(parse_anf("145", 5), parse_anf("12", 5)), size=1)
lower = QuotientClassification.compute(3, 5)
new = rebase_representatives([rec], lower)[0]
e_new, _ = decompose_top(new.rep)
print(f"  old rep {format_anf(rec.rep)}")
print(f"  new rep {format_anf(new.rep)} (lower part now {format_anf(e_new)})")
old_enum, new_enum = batch_coset_enumerators([rec.rep, new.rep], 2, 6)
print("  coset enumerator unchanged:", old_enum == new_enum)
