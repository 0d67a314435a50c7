"""The doubling recursion, from the split identity to a full distribution.

Splitting a coset of R(r+1,m+1) on the top variable expresses its
enumerator as a product-sum over the inner space H^(r+1)(m); grouping the
inner forms into stabilizer orbits collapses the sum to one multiplication
per block. Summing size-weighted squares over classified top forms then
yields the full-code distribution.

Run:  python demos/doubling_recursion.py
"""

import random

from rmenum.boolfn import HomogeneousSpace, attach_top, format_anf
from rmenum.classify import classify_quotient, merge_by_enumerator, orbit_partition
from rmenum.cosetenum import coset_enumerator, coset_histograms
from rmenum.oracle import brute_force_distribution
from rmenum.pipeline import MulCounter, coset_enum_blocks, coset_enum_split, run_pipeline
from rmenum.wenum import WeightEnumerator

rng = random.Random(5)

print("split identity: (e + f x5) + R(2,5) as a product-sum over H^(2)(4)")
e_space, f_space = HomogeneousSpace(4, 3), HomogeneousSpace(4, 2)
e = e_space.anf_of(rng.randrange(e_space.size))
f = f_space.anf_of(rng.randrange(f_space.size))
counter = MulCounter()
got = coset_enum_split(e, f, 1, 4, counter=counter)
want = coset_enumerator(attach_top(e, f), 2, 5)
print(f"  e = {format_anf(e)}, f = {format_anf(f)}")
print(f"  split == direct enumeration: {got == want} ({counter.count} multiplications)")

print("\nblock grouping above e = x1x2x3 on 5 variables:")
rec = next(r for r in classify_quotient(3, 5) if format_anf(r.rep) == "123")
part = orbit_partition(rec.rep, rec.gens, 1, 5)
space = HomogeneousSpace(5, 2)
# one int64 count row per orbit block, merged by their bytes
rows = coset_histograms([rec.rep ^ space.anf_of(int(g)) for g in part.first], 1, 5)
merged, mrows = merge_by_enumerator(part, [rows])
menums = [WeightEnumerator(32, h) for h in mrows.tolist()]
print(f"  {space.size} inner forms -> {part.block_count} orbit blocks"
      f" -> {merged.block_count} distinct enumerators")
f = space.anf_of(rng.randrange(space.size))
c_split, c_blocks = MulCounter(), MulCounter()
a = coset_enum_split(rec.rep, f, 1, 5, counter=c_split)
b = coset_enum_blocks(f, merged, menums, counter=c_blocks)
print(f"  equal results: {a == b};"
      f" multiplications {c_split.count} direct vs {c_blocks.count} blocked")

print("\nfull distribution of R(3,6) via the recursion (dim 42, no enumeration):")
counter = MulCounter()
dist = run_pipeline(3, 6, counter=counter)
print(f"  {counter.count} {counter.label}, total 2^42:",
      dist.total() == 1 << 42)

print("\nagainst the 2^26-word brute-force oracle at R(3,5):")
print("  pipeline == oracle:", run_pipeline(3, 5) == brute_force_distribution(3, 5))
