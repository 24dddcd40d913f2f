"""Lower/upper bounds and the exact approximation ratio trend.

The lower bound packs the radius-p ball; the upper bound is the scheme
modulus. Their ratio is 1 at k=1 and exceeds 9/8 at every supported
k >= 3 (4/3 at k=3), approaching 9/8 from above as k grows.
"""

from fractions import Fraction

from gridlabel import bounds_table, ratio

print("k  lower_exact  lower  upper  ratio       decimal")
for rec in bounds_table(1, 12):
    upper = "-" if rec.upper is None else rec.upper
    rat = "-" if rec.ratio is None else str(rec.ratio)
    dec = "-" if rec.ratio is None else f"{float(rec.ratio):.5f}"
    print(f"{rec.k:<2d} {str(rec.lower_exact):>11} {rec.lower:>6} {upper!s:>6}"
          f"  {rat:>10}  {dec}")

print("\nk=2 has a lower bound but no scheme, hence no upper bound.")

print("\napproach to 9/8 = 1.125:")
for k in (19, 49, 99, 199, 499, 999):
    r = ratio(k)
    print(f"   k={k:4d}: ratio = {r} = {float(r):.6f} "
          f"(excess over 9/8: {float(r - Fraction(9, 8)):.6f})")
