"""Checks of every benchmark output against the reference models.

Each check takes an operation's output in plain form (words as tuples of
generator indices, or the text the CLI wrote) and returns a list of
problems; an empty list means the output is correct.  Nothing here imports
garside or the repository's tests, and nothing compares against a stored
copy of an earlier output: the checks use the models in `models.py`,
closed-form sizes, and properties that the method guarantees.
"""

from __future__ import annotations

from models import Model, mlow_size


def _shortlex(words) -> list:
    return sorted(words, key=lambda w: (len(w), w))


# ---------------------------------------------------------------------------
# Shadows


def check_shadow_words(model: Model, words, expected_size=None) -> list[str]:
    """A Garside shadow given by its members' normal forms.

    The members are distinct elements, each printed as its ShortLex normal
    form and listed in ShortLex order; the set holds the identity and the
    generators and is closed under suffixes; and its size matches the
    closed form where one is known.
    """
    problems = []
    words = [tuple(w) for w in words]
    if words != _shortlex(words):
        problems.append("members are not in ShortLex order")
    values = [model.evaluate(w) for w in words]
    members = set(values)
    if len(members) != len(values):
        problems.append(f"{len(values) - len(members)} members repeat an element")
    for w, v in zip(words, values):
        if model.normal_form(v, len(w)) != w:
            problems.append(f"member {model.render(w)} is not a ShortLex normal form")
    for i in range(len(model.gens)):
        if model.gens[i] not in members:
            problems.append(f"generator {model.generators[i]} missing")
    for w in words:
        for k in range(len(w) + 1):
            if model.evaluate(w[k:]) not in members:
                problems.append(f"suffix {model.render(w[k:])} of {model.render(w)} missing")
                break
    if expected_size is not None and len(words) != expected_size:
        problems.append(f"{len(words)} members, the closed form gives {expected_size}")
    return problems


def check_nested(model: Model, inner, outer, what: str) -> list[str]:
    """Every member of the inner shadow is a member of the outer one."""
    outer_values = {model.evaluate(w) for w in outer}
    missing = [model.render(w) for w in inner if model.evaluate(w) not in outer_values]
    return [f"{what}: {', '.join(missing[:3])} not contained"] if missing else []


def expected_size(group: str, provenance: str):
    if provenance == "low":
        return mlow_size(group, 0)
    if provenance.startswith("m-low("):
        return mlow_size(group, int(provenance[len("m-low("):-1]))
    return None


def parse_shadow_text(model: Model, text: str):
    """Header fields and member words of a serialized shadow."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "# garside shadow v1":
        raise ValueError("missing shadow header")
    fields, body = {}, []
    for ln in lines[1:]:
        key = ln.split(":", 1)[0]
        if not body and ":" in ln and key in ("group-hash", "provenance", "constant-m", "elements"):
            fields[key] = ln.split(":", 1)[1].strip()
        else:
            body.append(model.parse(ln))
    return fields, body


def check_shadow_text(model: Model, text: str, provenance: str) -> list[str]:
    try:
        fields, words = parse_shadow_text(model, text)
    except (ValueError, KeyError) as exc:
        return [f"unreadable shadow file: {exc!r}"]
    problems = []
    if fields.get("provenance") != provenance:
        problems.append(f"provenance {fields.get('provenance')!r}, expected {provenance!r}")
    if fields.get("elements") != str(len(words)):
        problems.append(f"elements: {fields.get('elements')} but {len(words)} lines")
    if words and fields.get("constant-m") != str(max(len(w) for w in words)):
        problems.append(f"constant-m {fields.get('constant-m')} is not the longest member")
    problems += check_shadow_words(model, words, expected_size(model.name, provenance))
    return problems


# ---------------------------------------------------------------------------
# The voracious automaton, as written by `garside automaton --format text`


def reduced_word_count(model: Model, word) -> int:
    """Number of reduced words of the element of a reduced word, by recursion
    over its right descents in the model ball."""
    counts = {model.identity: 1}

    def count(value, n):
        hit = counts.get(value)
        if hit is None:
            hit = 0
            for letter in range(len(model.gens)):
                shorter = model.times_generator(value, letter)  # generators are involutions
                if model.length(shorter, n - 1) == n - 1:
                    hit += count(shorter, n - 1)
            counts[value] = hit
        return hit

    return count(model.evaluate(word), len(word))


def check_automaton_text(model: Model, text: str, shadow_words) -> list[str]:
    """States are the shadow members, all accepting, the identity first; an
    edge into w is labelled by exactly the reduced words of w^-1."""
    states, edges = {}, []
    try:
        for ln in text.splitlines():
            if ln.startswith("state: "):
                parts = ln.split()
                states[int(parts[1])] = (parts[2][len("label="):], set(parts[3:]))
            elif ln.startswith("edge: "):
                parts = ln.split()
                labels = [model.parse(w) for w in parts[4][len("labels="):].split(",")]
                edges.append((int(parts[1]), int(parts[3]), labels))
    except (ValueError, IndexError, KeyError) as exc:
        return [f"unreadable automaton: {exc!r}"]
    problems = []
    expected = [model.render(w) for w in shadow_words]
    if [states[i][0] for i in sorted(states)] != expected:
        problems.append("state labels are not the shadow members in order")
        return problems
    if "start" not in states[0][1]:
        problems.append("the identity state is not the start")
    if any("accept" not in flags for _, flags in states.values()):
        problems.append("a state does not accept")
    words = [tuple(w) for w in shadow_words]
    for src, dst, labels in edges:
        if not (0 <= src < len(words) and 0 < dst < len(words)):
            problems.append(f"edge {src} -> {dst} out of range")
            continue
        target = words[dst]
        inverse = model.evaluate(tuple(reversed(target)))
        for lab in labels:
            if len(lab) != len(target) or model.evaluate(lab) != inverse:
                problems.append(f"label {model.render(lab)} of edge {src} -> {dst} "
                                f"is not a reduced word of {model.render(target)}^-1")
        if len(set(labels)) != reduced_word_count(model, tuple(reversed(target))):
            problems.append(f"edge {src} -> {dst} does not carry every reduced word")
    if not edges:
        problems.append("no edges")
    return problems


# ---------------------------------------------------------------------------
# Language slices, projections and verification reports


def check_language_text(model: Model, text: str, max_len: int) -> list[str]:
    """Every word is geodesic, words are listed once in ShortLex order, and
    every element of the ball is represented."""
    try:
        words = [model.parse(ln) for ln in text.splitlines() if ln.strip()]
    except KeyError as exc:
        return [f"unknown letter {exc}"]
    problems = []
    if words != _shortlex(set(words)):
        problems.append("words repeat or are not in ShortLex order")
    bad = [w for w in words if len(w) > max_len or not model.is_reduced(w)]
    if bad:
        problems.append(f"{len(bad)} words are not reduced, e.g. {model.render(bad[0])}")
    if {model.evaluate(w) for w in words} != model.ball_values(max_len):
        problems.append(f"the words do not cover the ball of radius {max_len}")
    return problems


def language_per_element(model: Model, text: str) -> int:
    """Largest number of words of the slice that represent one element."""
    per: dict = {}
    for ln in text.splitlines():
        if ln.strip():
            v = model.evaluate(model.parse(ln))
            per[v] = per.get(v, 0) + 1
    return max(per.values())


def _below(model: Model, lower, upper) -> bool:
    """lower <= upper in right weak order: l(lower^-1 upper) = l(upper) - l(lower)."""
    gap = len(upper) - len(lower)
    if gap < 0:
        return False
    value = model.evaluate(tuple(reversed(lower)) + tuple(upper))
    return model.length(value, gap) == gap


def check_project_output(model: Model, stdout: str, word: str, shadow_words, constant_m: int) -> list[str]:
    fields = {}
    for ln in stdout.splitlines():
        if ": " in ln:
            key, value = ln.split(": ", 1)
            fields[key] = value
    try:
        g = model.parse(fields["element"])
        pi = model.parse(fields["pi"])
        nu = model.parse(fields["nu"])
        chain = [model.parse(x) for x in fields["chain"].split()]
    except KeyError as exc:
        return [f"missing or unreadable field {exc}"]
    problems = []
    if fields.get("word") != word:
        problems.append("echoed word differs from the input")
    given = model.parse(word)
    if model.normal_form(model.evaluate(given), len(given)) != g:
        problems.append(f"element {model.render(g)} is not the normal form of {word}")
    if pi not in {tuple(w) for w in shadow_words} or not _below(model, pi, g):
        problems.append(f"pi {model.render(pi)} is not a shadow member below the element")
    problems += check_chain(model, chain, g, constant_m)
    if len(chain) > 1 and chain[1] != nu:
        problems.append("nu is not the second step of the chain")
    return problems


def check_chain(model: Model, chain, g, constant_m: int) -> list[str]:
    """A voracious chain starts at g and strictly shortens to the identity,
    each step a weak-order prefix at most M letters shorter."""
    problems = []
    if not chain or tuple(chain[0]) != tuple(g) or tuple(chain[-1]) != ():
        return [f"chain does not run from {model.render(g)} to the identity"]
    for a, b in zip(chain, chain[1:]):
        if not len(a) - constant_m <= len(b) < len(a):
            problems.append(f"step {model.render(a)} -> {model.render(b)} has the wrong length")
        elif not _below(model, b, a):
            problems.append(f"step {model.render(b)} is not a prefix of {model.render(a)}")
    return problems


VERIFY_CHECKS = (
    "condition-one", "regularity", "first-ftp", "second-ftp", "projection-monotone",
    "step-bound", "low-containment", "refinement-by-shi",
)


def parse_report(text: str) -> tuple[dict, dict]:
    """Header fields, and each check's status and key=value details."""
    header, verdicts = {}, {}
    for ln in text.splitlines():
        if ln.startswith("check: "):
            parts = ln.split()
            details = dict(p.split("=", 1) for p in parts[3:] if "=" in p)
            verdicts[parts[1]] = (parts[2], details)
        elif ": " in ln:
            key, value = ln.split(": ", 1)
            header[key] = value
    return header, verdicts


def check_report(model: Model, text: str, radius: int, provenance: str,
                 constant_m: int, language_words: int, max_words: int) -> list[str]:
    """Every verdict passes, the suite ran every check it owes, and the
    ball figures agree with the model and with the language slice."""
    header, verdicts = parse_report(text)
    problems = []
    expected = set(VERIFY_CHECKS) | ({"original-projection"} if provenance == "low" else set())
    if set(verdicts) != expected:
        problems.append(f"checks {sorted(set(verdicts) ^ expected)} missing or unexpected")
    failed = [name for name, (status, _) in verdicts.items() if status != "pass"]
    if failed:
        problems.append(f"checks {failed} did not pass")
    if header.get("result") != "pass":
        problems.append(f"result: {header.get('result')}")
    if header.get("radius") != str(radius) or header.get("shadow") != provenance:
        problems.append("report header does not match the request")
    if header.get("constant-m") != str(constant_m):
        problems.append(f"constant-m {header.get('constant-m')}, expected {constant_m}")
    details = verdicts.get("condition-one", ("", {}))[1]
    if details.get("elements") != str(model.ball_size(radius)):
        problems.append(f"condition-one elements={details.get('elements')}, "
                        f"the model ball has {model.ball_size(radius)}")
    if details.get("max-words") != str(max_words):
        problems.append(f"condition-one max-words={details.get('max-words')}, "
                        f"the language slice gives {max_words}")
    words = verdicts.get("regularity", ("", {}))[1].get("words")
    if words != str(language_words):
        problems.append(f"regularity words={words}, the language slice has {language_words}")
    return problems


# ---------------------------------------------------------------------------
# Warm queries


def check_query(model: Model, word, nf, chain, voracious_word, accepted: bool,
                states, projection_label: str, constant_m: int) -> list[str]:
    """One query: the normal form, its voracious chain, one voracious word
    and the automaton's verdict on that word."""
    problems = []
    value = model.evaluate(word)
    if model.evaluate(nf) != value or len(nf) > len(word) or not model.is_reduced(nf):
        problems.append(f"{model.render(nf)} is not a reduced word for {model.render(word)}")
        return problems
    problems += check_chain(model, chain, nf, constant_m)
    v = tuple(voracious_word)
    prefixes = model.prefix_values(v)
    if len(v) != len(nf) or prefixes[-1] != value:
        problems.append(f"voracious word {model.render(v)} does not spell {model.render(nf)}")
    elif any(prefixes[len(c)] != model.evaluate(c) for c in chain):
        problems.append(f"voracious word {model.render(v)} does not pass through the chain")
    if not accepted or tuple(states) != (projection_label,):
        problems.append(f"accepted={accepted} at {tuple(states)}, expected ({projection_label},)")
    return problems
