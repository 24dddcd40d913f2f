"""No-hole audits: every label in {0, ..., c-1} must actually occur.

The attained label set of (a*x + b*y) mod c is the subgroup of Z_c
generated by gcd(a, b, c), so gcd == 1 decides the property instantly;
enumerating the c-by-c period row by row, until every label is seen,
confirms it independently.
"""

import math

from gridlabel import LabelingScheme, check_no_hole, scheme_params

print("real schemes (gcd route cross-checked by enumeration):")
for k in (1, 3, 4, 7, 9, 15, 21):
    s = scheme_params(k)
    rep = check_no_hole(s, "both")
    print(f"   k={k:2d}: gcd(a,b)={math.gcd(s.a, s.b)}  gcd(a,b,c)={rep.gcd_triple}  "
          f"attained {rep.attained_count}/{s.c}  -> "
          f"{'no-hole' if rep.is_no_hole else 'NOT no-hole'}")

print("\nan altered modulus breaks it (k=3 scheme forced to c=15):")
holey = LabelingScheme(k=3, p=1, parity_case="hand-built", a=5, b=15, c=15)
rep = check_no_hole(holey, "both")
print(f"   gcd(5,15,15) = {rep.gcd_triple}; attained only "
      f"{rep.attained_count}/15 labels (multiples of {rep.gcd_triple})")

print("\nbeyond the enumeration budget only the gcd route runs:")
big = scheme_params(41)
rep = check_no_hole(big, "gcd")
print(f"   k=41: c={big.c}, gcd(a,b,c)={rep.gcd_triple} -> "
      f"{'no-hole' if rep.is_no_hole else 'NOT no-hole'} "
      f"(enumeration skipped: c^2 = {big.c**2})")
