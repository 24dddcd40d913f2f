"""Independent ground truth: exact minimal label counts on small patches.

Iterative deepening with full pruning proves the minimum for desk-scale
rectangles. Any finite patch needs at most as many labels as the
infinite-grid scheme uses, which makes the search a sanity check on the
constructive bound: a proven patch minimum is compared with lambda_ub(k)
directly, and an unproven one (budget hit) or k = 2, where no scheme
exists, gets no verdict.
"""

from gridlabel import Patch, UnsupportedK, exact_span, lambda_ub

print("exact spans (all proven optimal):")
for rows, cols, k in [(1, 1, 4), (3, 3, 1), (2, 2, 2), (2, 2, 3),
                      (3, 3, 3), (4, 4, 3), (3, 3, 4)]:
    res = exact_span(Patch(rows, cols), k)
    print(f"   {rows}x{cols} k={k}: lambda = {res.minimal_lambda:2d} "
          f"({res.nodes_explored} nodes, exhausted={res.exhausted})")

print("\ncertificate for 4x4, k=3 (matches the scheme's 12 labels exactly):")
res = exact_span(Patch(4, 4), 3)
for y in range(3, -1, -1):
    print("   " + " ".join(f"{res.certificate[(x, y)]:>2}" for x in range(4)))

print("\npatch vs infinite-grid bound:")
for rows, cols, k in [(3, 3, 1), (2, 2, 3), (4, 4, 3), (3, 3, 2)]:
    res = exact_span(Patch(rows, cols), k)
    try:
        ub = lambda_ub(k)
    except UnsupportedK:
        ub = None
    if ub is None or not res.exhausted:
        verdict = "n/a"
    else:
        verdict = "consistent" if res.minimal_lambda <= ub else "INCONSISTENT"
    print(f"   {rows}x{cols} k={k}: patch {res.minimal_lambda} <= grid "
          f"{'-' if ub is None else ub}: {verdict}")

print("\nk=2 has no scheme, so there is nothing to compare against (n/a);")
print("the exact search itself still works for k=2, as shown above.")
