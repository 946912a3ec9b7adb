"""Output checks: each job's output must have a property its method
guarantees, recomputed with the independent reference (no saved outputs).

``check(job, rc, payload, cache)`` returns None when the output passes and
a one-line reason when it does not.
"""

from __future__ import annotations

from collections import Counter

import reference as ref


def check(job, rc, payload, cache):
    spec = job["check"]
    t = None
    if "machine" in spec:
        t = cache.get(spec["machine"])
        if t is None:
            t = cache[spec["machine"]] = ref.load_machine(spec["machine"])
    try:
        return CHECKS[spec["kind"]](spec, t, rc, payload)
    except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
        return "malformed output: %r" % (exc,)


def _growth(spec, t, rc, out):
    levels = spec["levels"]
    chi, multisets = [], []
    for k in range(1, levels + 1):
        sizes = ref.level_sizes(t, k)
        chi.append(sizes[0])
        multisets.append(sorted([s, c] for s, c in Counter(sizes).items()))
    if spec["family"] in ("grigorchuk", "odometer"):
        if multisets != [[[2**k, 1]] for k in range(1, levels + 1)]:
            return "the reference does not find one orbit of 2^k per level"
    if rc != 0 or out["levels"] != levels:
        return "exit %s, levels %r" % (rc, out.get("levels"))
    if out["chi"] != chi:
        return "chi %r, reference %r" % (out["chi"], chi)
    if [sorted(list(x) for x in ms) for ms in out["component_sizes"]] != multisets:
        return "component size multisets differ from the reference"
    return None


def _components(spec, t, rc, out):
    sizes = ref.level_sizes(t, spec["k"])
    if rc != 0:
        return "exit %s" % rc
    if out["sizes"] != sorted(sizes, reverse=True) or out["count"] != len(sizes):
        return "level %d sizes differ from the reference" % spec["k"]
    if out["smallest"] != sizes[0]:
        return "smallest %r, reference %r" % (out["smallest"], sizes[0])
    return None


def _level_group(spec, t, rc, out):
    k = spec["k"]
    order = ref.group_order(t, k)
    if spec["family"] == "grigorchuk" and k >= 3 and order != 2 ** (5 * 2 ** (k - 3) + 2):
        return "the reference order %d breaks |G/St(k)| = 2^(5*2^(k-3)+2)" % order
    if rc != 0 or out["order"] != order:
        return "exit %s, order %r, reference %d" % (rc, out.get("order"), order)
    return None


def _relations(spec, t, rc, out):
    depth = spec["depth"]
    identity = tuple(range(t.m**depth))
    for text in out["relations"]:
        if t.word_perm(t.codes(text.split()), depth) != identity:
            return "%r does not act trivially at depth %d" % (text, depth)
    expected = ref.relations(t, spec["max_len"], depth)
    if rc != 0 or out["count"] != len(expected) or len(out["relations"]) != len(expected):
        return "exit %s, %r relations, reference %d" % (rc, out.get("count"), len(expected))
    return None


def _decide_bounded(spec, t, rc, out):
    limit = spec["limit"]
    kind = out["kind"]
    if kind == "yes":
        prefix, period = t.word(out["prefix"]), t.word(out["period"])
        size = out["component_size"]
        if rc != 0 or not period or size > limit:
            return "yes verdict with exit %s, period %r, size %r" % (rc, period, size)
        for k in range(4):
            got = len(ref.component(t, prefix + period * k))
            if got != size:
                return "prefix.period^%d has a component of %d, not %d" % (k, got, size)
        return None
    if kind == "no":
        level = out["level"]
        sizes = ref.level_sizes(t, level)
        if rc != 1 or sizes[0] <= limit or out["chi_at_level"] != sizes[0]:
            return "no verdict at level %d, reference smallest %d" % (level, sizes[0])
        if level > 1 and ref.level_sizes(t, level - 1)[0] > limit:
            return "level %d already leaves every component above the limit" % (level - 1)
        return None
    return "verdict %r (exit %s) where yes or no was expected" % (kind, rc)


def _finiteness(spec, t, rc, out):
    horizon = spec["horizon"]
    kind = out["kind"]
    chi = [ref.level_sizes(t, k)[0] for k in range(1, horizon + 1)]
    growing = all(chi[i] < chi[i + 1] for i in range(len(chi) - 1))
    if kind == "infinite" and out["level"] is None:
        if ref.reversible(t) and t.invertible and not ref.bireversible(t):
            return None
        return "certificate given for a machine that is not reversible-only"
    if kind == "infinite":
        if out["level"] == horizon and growing:
            return None
        return "infinite verdict, reference chi %r" % (chi,)
    if kind == "finite":
        largest = ref.level_sizes(t, out["level"])[-1]
        if out["bound"] == largest:
            return None
        return "bound %r, reference largest component %d" % (out["bound"], largest)
    if kind == "unknown" and not growing:
        return None
    return "verdict %r, reference chi %r" % (kind, chi)


def _schreier(spec, t, rc, out):
    word = t.word(spec["word"])
    orbit = ref.component(t, word)
    n_orbit = len(orbit)
    rank = n_orbit * (t.n - 1) + 1
    basis = out["stabilizer_basis"]
    if rc != 0 or out["orbit_size"] != n_orbit:
        return "exit %s, orbit %r, reference %d" % (rc, out.get("orbit_size"), n_orbit)
    if out["rank"] != rank or len(basis) != rank:
        return "rank %r, expected N(r-1)+1 = %d" % (out["rank"], rank)
    for text in basis:
        if t.act(t.codes(text.split()), word) != word:
            return "basis word %r moves %r" % (text, spec["word"])
    return None


def _stallings(spec, t, rc, out):
    n_orbit = len(ref.component(t, t.word(spec["word"])))
    if out["vertices"] != n_orbit:
        return "Stallings automaton has %r vertices, orbit %d" % (out["vertices"], n_orbit)
    if out["accepted"] != out["words"]:
        return "accepts %r of %r basis words" % (out["accepted"], out["words"])
    if out["rank"] != n_orbit * (t.n - 1) + 1:
        return "folded basis rank %r" % (out["rank"],)
    return None


def _components_base(spec, t, rc, out):
    orbit = ref.component(t, t.word(spec["word"]))
    names = {t.word_name(w) for w in orbit}
    if rc != 0 or out["size"] != len(orbit) or set(out["vertices"]) != names:
        return "exit %s, component of %r differs from the reference" % (rc, spec["word"])
    return None


def _free_check(spec, t, rc, out):
    expected = ref.first_collision(t, spec["max_len"])
    if expected is not None:
        expected = [" ".join(t.states[q] for q in w) for w in expected]
    if rc != 0 or out["collision"] != expected:
        return "collision %r, reference %r" % (out["collision"], expected)
    return None


def _torsion(spec, t, rc, out):
    expected = [
        {"word": [t.letters[a] for a in u], "index": i, "period": p}
        for u, i, p in ref.torsion(t, spec["max_len"], spec["max_exp"])
    ]
    if rc != 0 or out["witnesses"] != expected:
        return "witnesses %r, reference %r" % (out["witnesses"], expected)
    return None


def _ledger(spec, t, rc, out):
    elements, table = ref.load_group(spec["group"])
    d = ref.cayley_dual(elements, table)
    depth = spec["depth"]
    identity = tuple(range(d.m**depth))
    if rc != 0 or out["verified_depth"] != depth or out["all_verified"] is not True:
        return "exit %s, verified %r to depth %r" % (rc, out.get("all_verified"), depth)
    if sorted(out["relations"]) != [str(2 * k) for k in range(1, spec["k_max"] + 1)]:
        return "relation lengths %r" % (sorted(out["relations"]),)
    for length, words in out["relations"].items():
        for text in words:
            codes = d.codes(text.split())
            if len(codes) != int(length) or d.word_perm(codes, depth) != identity:
                return "%r does not act trivially at depth %d" % (text, depth)
    return None


CHECKS = {
    "growth": _growth,
    "components": _components,
    "level-group": _level_group,
    "relations": _relations,
    "decide-bounded": _decide_bounded,
    "finiteness": _finiteness,
    "schreier": _schreier,
    "stallings": _stallings,
    "components-base": _components_base,
    "free-check": _free_check,
    "torsion": _torsion,
    "ledger": _ledger,
}
