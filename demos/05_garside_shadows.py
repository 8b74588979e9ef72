"""Garside shadows and their projections
=========================================

A Garside shadow contains the generators and is closed under suffixes
and under existing joins.  Projecting g onto a shadow B takes the join
of the shadow elements below g; the fibers of the projection partition
the group, each part gated by its shadow element.
"""

from garside import (
    b_projection,
    garside_closure,
    make_system,
    partition_part,
    refinement_check,
    shadow_from_gates,
    shadow_to_text,
    validate_shadow,
)

s3 = make_system(["s", "t"], {("s", "t"): 3}, "I2(3)")
a2 = make_system(["s", "t", "u"], {("s", "t"): 3, ("t", "u"): 3, ("s", "u"): 3}, "affine-A2")

# {id, s, t} is not a shadow in the hexagon group: the join of s and t is missing
result = validate_shadow(s3, [s3.identity, *s3.gens])
print("validate {id, s, t} in I2(3):", result.violation)

# closing the generators fills in the whole finite group
closure = garside_closure(s3, [], 8)
print("closure of the generators:", [str(g) for g in closure])

# the three canonical finite shadows of the affine triangle system
for kind, m in (("gamma", None), ("low", None), ("m-low", 1)):
    shadow = shadow_from_gates(a2, kind, m)
    print(f"{shadow.provenance:9s} {len(shadow):3d} elements, length constant {shadow.constant_m}")

low = shadow_from_gates(a2, "low")
g = a2.element("stsu")
print("\nprojection of stsu onto the low shadow:", b_projection(low, g))

print("part gated by s (ball of radius 3):",
      [str(x) for x in partition_part(low, a2.gens[0], 3)])

gamma = shadow_from_gates(a2, "gamma")
report = refinement_check(gamma, low, 6)
print("\nequal low-projections force equal gamma-projections:",
      "verified" if report.passed else "FAILED", f"({report.details})")

print("\nserialized low shadow of the infinite dihedral group:")
dinf = make_system(["s", "t"], {("s", "t"): 0}, "D-infinity")
print(shadow_to_text(shadow_from_gates(dinf, "low")))
