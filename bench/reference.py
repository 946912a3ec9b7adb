"""Independent reference used to check the benchmark's outputs.

Written apart from ``src/``: it parses the machine and group files itself
and works on raw integer tables.  Words are base-m integers with the first
letter most significant.  State words act rightmost state first, and a
signed state code ``q + n`` stands for the formal inverse of state ``q``.

Nothing here is timed; the benchmark calls it after the workload ends.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque

INV = "^-1"


class Tables:
    """A machine as raw tables, with inverse states appended when invertible."""

    def __init__(self, states, letters, delta, lam):
        self.states = tuple(states)
        self.letters = tuple(letters)
        self.n = len(self.states)
        self.m = len(self.letters)
        self.delta = [list(row) for row in delta]
        self.lam = [list(row) for row in lam]
        self.invertible = all(len(set(row)) == self.m for row in lam)
        if self.invertible:
            for q in range(self.n):
                drow = [0] * self.m
                lrow = [0] * self.m
                for a in range(self.m):
                    b = lam[q][a]
                    lrow[b] = a
                    drow[b] = delta[q][a] + self.n
                self.delta.append(drow)
                self.lam.append(lrow)
        self._perms = [[(0,)] * len(self.delta)]  # level 0: the empty word

    # -- names -----------------------------------------------------------

    def code(self, name):
        if name in self.states:
            return self.states.index(name)
        if name.endswith(INV):
            return self.states.index(name[: -len(INV)]) + self.n
        raise KeyError(name)

    def codes(self, names):
        return [self.code(x) for x in names]

    def word(self, text):
        """Letter indices of a word written as in the program's output."""
        if isinstance(text, (list, tuple)):
            return tuple(self.letters.index(x) for x in text)
        parts = text.split(",") if "," in text else list(text)
        return tuple(self.letters.index(x) for x in parts)

    def word_name(self, word):
        sep = "" if all(len(x) == 1 for x in self.letters) else ","
        return sep.join(self.letters[a] for a in word)

    # -- actions ---------------------------------------------------------

    def run(self, code, word):
        """Output word and final state of one signed state over a word."""
        out = []
        for a in word:
            out.append(self.lam[code][a])
            code = self.delta[code][a]
        return tuple(out), code

    def act(self, codes, word):
        """Output of a signed state word (rightmost first) on a word."""
        for code in reversed(codes):
            word, _ = self.run(code, word)
        return word

    def perms(self, k):
        """Permutation of level k for every signed state, built by wreath
        recursion: perm_k[q][a*m^(k-1)+r] = lam(q,a)*m^(k-1) + perm_{k-1}[delta(q,a)][r]."""
        while len(self._perms) <= k:
            prev = self._perms[-1]
            size = len(prev[0])
            level = []
            for q in range(len(self.delta)):
                row = []
                for a in range(self.m):
                    shift = self.lam[q][a] * size
                    row.extend(shift + x for x in prev[self.delta[q][a]])
                level.append(tuple(row))
            self._perms.append(level)
        return self._perms[k]

    def word_perm(self, codes, k):
        """Level-k permutation of a signed state word."""
        perms = self.perms(k)
        cur = range(self.m**k)
        for code in reversed(codes):  # the rightmost state acts first
            p = perms[code]
            cur = [p[x] for x in cur]
        return tuple(cur)


def parse_machine(text):
    states = letters = None
    edges = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("states:"):
            states = line[len("states:"):].split()
        elif line.startswith("alphabet:"):
            letters = line[len("alphabet:"):].split()
        else:
            src, a, arrow, dst, b = line.split()
            if arrow != "->":
                raise ValueError("bad edge line %r" % (line,))
            edges.append((src, a, dst, b))
    delta = [[None] * len(letters) for _ in states]
    lam = [[None] * len(letters) for _ in states]
    for src, a, dst, b in edges:
        q, x = states.index(src), letters.index(a)
        delta[q][x] = states.index(dst)
        lam[q][x] = letters.index(b)
    return Tables(states, letters, delta, lam)


def load_machine(path):
    with open(path, encoding="utf-8") as fh:
        return parse_machine(fh.read())


def parse_group(text):
    """(element names, multiplication table of indices)."""
    elements = None
    rows = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, tail = line.partition(":")
        if head.strip() == "elements":
            elements = tail.split()
        else:
            rows[head.strip()] = tail.split()
    table = [[elements.index(x) for x in rows[g]] for g in elements]
    return elements, table


def load_group(path):
    with open(path, encoding="utf-8") as fh:
        return parse_group(fh.read())


def dual(t):
    """Dual tables: states and letters swap roles."""
    delta = [[t.lam[q][a] for q in range(t.n)] for a in range(t.m)]
    lam = [[t.delta[q][a] for q in range(t.n)] for a in range(t.m)]
    return Tables(t.letters, t.states, delta, lam)


def cayley_dual(elements, table):
    """Dual of the Cayley machine (state g, letter x -> state gx, output gx)."""
    n = len(elements)
    delta = [[table[g][x] for x in range(n)] for g in range(n)]
    return dual(Tables(elements, elements, delta, delta))


# -- level structure -------------------------------------------------------


def level_sizes(t, k):
    """Sorted component sizes of level k, by union-find over the state perms."""
    size = t.m**k
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in t.perms(k)[: t.n]:
        for x in range(size):
            rx, ry = find(x), find(p[x])
            if rx != ry:
                parent[rx] = ry
    return sorted(Counter(find(x) for x in range(size)).values())


def group_order(t, k):
    """Order of the group the states induce on level k, by closing the
    generator permutations under composition."""
    gens = [p for p in t.perms(k)[: t.n] if list(p) != list(range(len(p)))]
    identity = tuple(range(t.m**k))
    seen = {identity}
    queue = deque([identity])
    while queue:
        g = queue.popleft()
        for p in gens:
            h = tuple(p[x] for x in g)
            if h not in seen:
                seen.add(h)
                queue.append(h)
    return len(seen)


def component(t, word):
    """Vertex set of the orbit of one word under all signed states."""
    word = tuple(word)
    seen = {word}
    queue = deque([word])
    while queue:
        v = queue.popleft()
        for code in range(len(t.delta)):
            w, _ = t.run(code, v)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def relations(t, max_len, depth):
    """Reduced words up to max_len acting trivially on level ``depth``."""
    identity = tuple(range(t.m**depth))
    perms = t.perms(depth)
    found = []
    frontier = [((), identity)]
    for _ in range(max_len):
        nxt = []
        for w, perm in frontier:
            for c in range(2 * t.n):
                if w and (c == w[-1] - t.n or c == w[-1] + t.n):
                    continue
                # Appending a state on the right pre-composes its action.
                p = perms[c]
                nxt.append((w + (c,), tuple(perm[p[x]] for x in range(len(p)))))
        found.extend(w for w, perm in nxt if perm == identity)
        frontier = nxt
    return found


# -- actions of state words ------------------------------------------------


def bisimilar(t, u, v, limit=10**6):
    """Whether two state words (codes) act identically, by breadth-first
    search over pairs of state words reached by the same input."""
    start = (tuple(u), tuple(v))
    seen = {start}
    queue = deque([start])
    while queue:
        cu, cv = queue.popleft()
        for a in range(t.m):
            nu, nv = list(cu), list(cv)
            ou = _step(t, nu, a)
            ov = _step(t, nv, a)
            if ou != ov:
                return False
            pair = (tuple(nu), tuple(nv))
            if pair not in seen:
                if len(seen) >= limit:
                    raise RuntimeError("bisimulation pair limit reached")
                seen.add(pair)
                queue.append(pair)
    return True


def _step(t, codes, a):
    for i in range(len(codes) - 1, -1, -1):
        q = codes[i]
        codes[i] = t.delta[q][a]
        a = t.lam[q][a]
    return a


def classes(t, words):
    """Class index of each state word under action equality.

    Words are first grouped by their permutation of a small level, which
    separates unequal actions cheaply; words sharing that permutation are
    compared exactly by bisimulation.
    """
    depth = 1
    while depth < 8 and t.m ** (depth + 1) <= 256:
        depth += 1
    buckets = {}
    out = []
    next_class = 0
    for w in words:
        key = t.word_perm(w, depth)
        reps = buckets.setdefault(key, [])
        for rep, cls in reps:
            if bisimilar(t, rep, w):
                out.append(cls)
                break
        else:
            reps.append((w, next_class))
            out.append(next_class)
            next_class += 1
    return out


def first_collision(t, max_len):
    """First positive state word (length-lex) acting like an earlier one,
    with the first earlier such word, or None."""
    words = [
        w for n in range(1, max_len + 1) for w in itertools.product(range(t.n), repeat=n)
    ]
    first = {}
    for w, cls in zip(words, classes(t, words)):
        if cls in first:
            return first[cls], w
        first[cls] = w
    return None


def torsion(t, max_len, max_exp):
    """Torsion witnesses of the dual action: (word, index, period) for each
    input word u whose powers u, uu, ... repeat up to max_exp."""
    d = dual(t)
    found = []
    for n in range(1, max_len + 1):
        for u in itertools.product(range(t.m), repeat=n):
            powers = [list(u) * e for e in range(1, max_exp + 1)]
            first = {}
            for e, cls in enumerate(classes(d, powers), start=1):
                if cls in first:
                    found.append((u, first[cls], e - first[cls]))
                    break
                first[cls] = e
    return found


def reversible(t):
    return all(
        len({t.delta[q][a] for q in range(t.n)}) == t.n for a in range(t.m)
    )


def bireversible(t):
    if not (t.invertible and reversible(t)):
        return False
    # The inverse machine's transitions on each letter must also permute.
    return all(
        len({t.delta[q + t.n][b] for q in range(t.n)}) == t.n for b in range(t.m)
    )
