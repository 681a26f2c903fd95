"""Is the threshold really the best table?  Check them all.

For two projects on a k-point profit grid, a table mechanism is pinned down
by one monotone 0/1 indicator, a staircase of row thresholds: C(2k, k)
candidates.  Each column adds its own integer score, so a dynamic program
over the columns finds the exact best of all of them in O(k^2) steps, without
listing them.  Scores are integers, so ties are real ties.

Every grid size crowns a threshold, at the grid point nearest 1/2 (the one
just above it on even grids).  On odd grids two mirrored thresholds tie and
the one at 1/2 is reported; the bar never strays from the middle.
"""

import math

from tablemech import best_table_mechanism_n2

print(f"{'k':>4} {'candidates':>11} {'best EU':>10} {'cutoff':>8} "
      f"{'ties':>5}  shape")
for k in (*range(2, 13), 25, 100, 1000):
    res = best_table_mechanism_n2(k)
    shape = "threshold" if res.is_cutoff_shaped else "other"
    cut = f"{res.best_cutoff:.4f}" if res.best_cutoff is not None else "-"
    digits = len(str(res.n_candidates))
    count = str(res.n_candidates) if digits <= 11 else f"~1e{digits - 1}"
    print(
        f"{k:>4} {count:>11} {str(res.eu_exact):>10} {cut:>8} "
        f"{len(res.maximizers):>5}  {shape}"
    )
    assert res.n_candidates == math.comb(2 * k, k)
    assert res.is_cutoff_shaped

res = best_table_mechanism_n2(9)
print("\nwinning indicator at k=9 (rows: own profit, low to high):")
for row in res.best.astype(int)[::-1]:
    print("   ", "".join(".#"[v] for v in row))
print("a flat staircase: on the table exactly when own profit clears 1/2,")
print("regardless of what the other project reports.")
