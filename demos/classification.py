"""Classifying homogeneous forms under invertible substitution.

The group GL(m,2) acts on degree-d forms by substitution (keeping the
top-degree part). Orbits, orbit sizes, and stabilizer generators are what
the weight-distribution recursion consumes: one coset enumerator per
orbit, weighted by its size.

Run:  python demos/classification.py
"""

import io
import random

from rmenum.boolfn import format_anf
from rmenum.classify import (
    QuotientClassification,
    classify_quotient,
    write_classification,
)
from rmenum.gf2 import AffineMap, stabilizer_check, top_image

print("quadratic forms on 4 variables fall into 3 classes (by rank):")
for rec in classify_quotient(2, 4):
    print(f"  rep {format_anf(rec.rep):8s} orbit size {rec.size:3d} gens {len(rec.gens)}")

print("\ncubic forms on 6 variables, 2^20 of them, in under a second:")
records = classify_quotient(3, 6)
for rec in records:
    print(f"  rep {format_anf(rec.rep):24s} orbit size {rec.size}")
print("  sizes sum to 2^20:", sum(r.size for r in records) == 1 << 20)

print("\nstabilizer generators really stabilize (modulo lower degrees):")
rec = classify_quotient(3, 5, random.Random(0))[2]
print(f"  class rep {format_anf(rec.rep)}, {len(rec.gens)} sampled generators")
print("  all pass:", all(stabilizer_check(rec.rep, a) for a in rec.gens))

print("\nthe transversal writes any form as (rep acted on by an explicit matrix):")
cls = QuotientClassification.compute(3, 5)
idx = 777
form = cls.space.anf_of(idx)
cid = int(cls.class_of[idx])
mat = cls.transversal(idx)
moved = top_image(cls.records[cid].rep, AffineMap(mat, 0))
print(f"  form {format_anf(form)} lies in class {cid}")
print("  rep carried onto it:", moved == form)

print("\nclassifications serialize to a validated text format:")
buf = io.StringIO()
write_classification(buf, classify_quotient(2, 4), 2, 4, seed=0)
print("\n".join("  " + line for line in buf.getvalue().splitlines()[:8]))
print("  ...")
