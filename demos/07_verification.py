"""Ball verification of the structural guarantees
==================================================

Every guarantee the construction relies on is checked exhaustively on
Cayley balls: the language covers the group, the automaton recognizes
it, prefixes of neighbouring words fellow-travel within the proven
bounds, and the projection behaves like a projection.  The parallel-wall
constant in the second bound is exact: it is read off the small roots.
Its ball estimate, a lower bound from the definition, is printed beside
it for comparison.
"""

from garside import (
    check_first_ftp,
    check_second_ftp,
    estimate_parallel_wall,
    full_suite,
    make_system,
    parallel_wall_constant,
    shadow_from_gates,
)

a2 = make_system(["s", "t", "u"], {("s", "t"): 3, ("t", "u"): 3, ("s", "u"): 3}, "affine-A2")
low = shadow_from_gates(a2, "low")

print(full_suite(low, 6).to_text())

ftp1 = check_first_ftp(low, 7)
print(f"first fellow traveller at radius 7: max deviation {ftp1.max_deviation},"
      f" proven bound {ftp1.theoretical_bound}, {ftp1.pairs_checked} pairs")

ftp2 = check_second_ftp(low, 6)
print(f"second fellow traveller: max deviation {ftp2.max_deviation}"
      f" (stable at radius+1: {ftp2.plateau}), proven bound {ftp2.theoretical_bound}")

print("\nparallel-wall constants, exact and as ball estimates (lower bounds):")
for m in (0, 1, 2):
    estimates = ", ".join(f"radius {r}: {estimate_parallel_wall(a2, m, r)}" for r in (6, 8))
    print(f"  m={m}: Q = {parallel_wall_constant(a2, m)}; {estimates}")

tri = make_system(["s", "t", "u"], {("s", "t"): 3, ("t", "u"): 3, ("s", "u"): 4}, "triangle-334")
print("\nhyperbolic triangle system, gamma shadow, radius 6:")
bundle = full_suite(shadow_from_gates(tri, "gamma"), 6)
print("  all checks:", "pass" if bundle.all_passed else "FAIL")
