"""The right weak order
=======================

g lies below h when some geodesic from the identity to h passes through
g.  Meets always exist.  Joins exist exactly for sets with an upper bound,
and `join` decides which: it scans the m-low elements, a finite Garside
shadow holding the members, and returns None when no upper bound exists
anywhere in the group.
"""

from garside import (
    join,
    lower_interval,
    make_system,
    meet,
    weak_leq,
)

s3 = make_system(["s", "t"], {("s", "t"): 3}, "I2(3)")
dinf = make_system(["s", "t"], {("s", "t"): 0}, "D-infinity")

s, t = s3.gens
sts = s3.element("sts")

print("s <= st:", weak_leq(s, s3.element("st")))
print("t <= st:", weak_leq(t, s3.element("st")))

print("\nlower interval of sts:", [str(x) for x in lower_interval(sts)])

print("\nmeet of {st, sts}:", meet([s3.element("st"), sts]))
print("meet of {s, t}:", meet([s, t]), "(the identity)")

print("\njoin of {s, t} in the hexagon group:", join([s, t]))

# in the infinite dihedral group s and t have no common upper bound at all
verdict = join(dinf.gens)
assert verdict is None
print("join of {s, t} in the infinite dihedral group:", verdict)
