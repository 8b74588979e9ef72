"""The voracious language and its automaton
============================================

Iterating the voracious projection walks any element down to the
identity in bounded-length steps; writing a minimal word for each step
produces the voracious words of the element.  The union over the group
is a regular language, recognized by an automaton whose states are the
shadow members.
"""

from garside import (
    build_voracious_fsa,
    enumerate_language,
    fsa_accepts,
    language_of,
    make_system,
    op_voracious_projection,
    shadow_from_gates,
    voracious_chain,
    voracious_projection,
)

dinf = make_system(["s", "t"], {("s", "t"): 0}, "D-infinity")
low = shadow_from_gates(dinf, "low")

g = dinf.element("tsts")
print("projection chain of tsts:",
      " -> ".join(str(x) for x in voracious_chain(low, g).steps))
print("one projection step:", voracious_projection(low, g))
print("the original wall-based description agrees:", op_voracious_projection(g))

print("\nvoracious words, by element:")
for element in dinf.ball(4):
    words = ", ".join(dinf.render_word(w) for w in sorted(language_of(low, element)))
    print(f"  {str(element):5s} <- {words}")

aut = build_voracious_fsa(low)
print("\nautomaton of the language:")
print(aut.to_text())

for text in ("stst", "ss", "tst"):
    word = dinf.parse_word(text)
    result = fsa_accepts(aut, word)
    if result.accepted:
        print(f"accepts {text!r} at state(s) {result.states}")
    else:
        print(f"rejects {text!r}")

# with richer shadows the language genuinely changes
a2 = make_system(["s", "t", "u"], {("s", "t"): 3, ("t", "u"): 3, ("s", "u"): 3}, "affine-A2")
for kind, m in (("gamma", None), ("m-low", 1)):
    shadow = shadow_from_gates(a2, kind, m)
    words = enumerate_language(shadow, 5).words
    print(f"\naffine triangle, {shadow.provenance}: {len(words)} words of length <= 5,"
          f" e.g. {sorted(a2.render_word(w) for w in words)[5:10]}")
    aut = build_voracious_fsa(shadow)
    print(f"  automaton: {aut.n_states} states, {len(aut.edges)} edges")
