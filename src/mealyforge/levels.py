"""Level graphs, Schreier structures and relations of automaton (semi)groups.

An invertible machine acts on words over its alphabet through signed state
words.  Level k of the action is an involutive graph on the words of length
k: every signed state q contributes an edge v --q|q'--> w where w is the
transformed word and q' the signed state reached after the transformation.
Reading a path therefore composes states so that the word acting is the
reversed path label; helpers here convert back to the acting convention.

Whole levels come from the wreath recursion (Nekrashevych, *Self-similar
Groups*, 2005): a state q acts on a word ``a r`` as ``q(a r) = lam(q, a)
delta(q, a)(r)``.  ``LevelAction`` codes a word of length k as the base-m
integer of its letters, first letter most significant, so integer order is
lexicographic order, and builds level k+1 from level k:

    perm[q][a * m^k + r] = lam[q][a] * m^k + perm_k[delta[q][a]][r]

The state reached follows the same rule, ``sec[q][a * m^k + r] =
sec_k[delta[q][a]][r]``.  The same recursion decides relations: a state
word acts trivially to depth d exactly when it fixes every letter and each
of its sections acts trivially to depth d - 1.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property

from .errors import BudgetExceeded, NotInvertible
from .graphs import InverseAutomaton, basis, canonical_marked, find
from .machines import (
    DEFAULT_NODE_BUDGET,
    SignedTables,
    StateWordTable,
    _run,
    act_pair,
    action_signature,  # noqa: F401  (bench/tracing.py wraps it under this name)
    inverse_name,
    parse_word,
    states_equivalent,
)

DEFAULT_VERTEX_BUDGET = 10**7
DEFAULT_ORDER_BUDGET = 10**6


def word_name(alphabet, word):
    """Readable name of a word given as a tuple of letter indices."""
    letters = [alphabet[a] for a in word]
    if all(len(x) == 1 for x in alphabet):
        return "".join(letters)
    return ",".join(letters)


def norm(machine):
    """Largest weak component of the machine's underlying digraph."""
    n = len(machine.states)
    parent = list(range(n))
    for q in range(n):
        for t in machine.transitions[q]:
            parent[find(parent, q)] = find(parent, t)
    sizes = Counter(find(parent, q) for q in range(n))
    return max(sizes.values())


def _signed_tables(machine):
    tables = SignedTables(machine)
    if not tables.invertible:
        raise NotInvertible("level structures require an invertible machine")
    return tables


class LevelAction:
    """The action of the signed states on the words of one level.

    Words of length ``k`` are base-m integers, first letter most
    significant; ``perm[q][x]`` is the image of word ``x`` under state code
    ``q``.  ``n_codes`` limits the table to the first codes: ``tables.n``
    keeps only the positive states, which suffice for orbits.
    """

    def __init__(self, tables, k=0, n_codes=None):
        if k < 0:
            raise ValueError("level must be non-negative, got %d" % k)
        self.tables = tables
        self.m = tables.n_letters
        self.n_codes = 2 * tables.n if n_codes is None else n_codes
        self.k = 0
        self.size = 1  # m ** k words
        self.perm = [[0] for _ in range(self.n_codes)]
        for _ in range(k):
            self.deepen()

    def deepen(self):
        """Move to level k + 1 by the wreath recursion."""
        delta, lam = self.tables.delta, self.tables.lam
        size, perm = self.size, self.perm
        deeper = []
        for q in range(self.n_codes):
            row = []
            for a in range(self.m):
                b = lam[q][a] * size
                below = perm[delta[q][a]]
                row += [b + x for x in below] if b else below
            deeper.append(row)
        self.perm = deeper
        self.size = size * self.m
        self.k += 1

    def sections(self):
        """``sec[q][x]``: the state code reached after ``q`` reads word ``x``."""
        delta = self.tables.delta
        sec = [[q] for q in range(self.n_codes)]
        for _ in range(self.k):
            deeper = []
            for q in range(self.n_codes):
                row = []
                for s in delta[q]:
                    row += sec[s]
                deeper.append(row)
            sec = deeper
        return sec

    def orbits(self):
        """Orbit labels of the words, numbered in order of their smallest
        word, and the size of each orbit."""
        perms = self.perm[: self.tables.n]  # inverses add no connections
        label = [-1] * self.size
        sizes = []
        for start in range(self.size):
            if label[start] >= 0:
                continue
            c = len(sizes)
            label[start] = c
            stack = [start]
            size = 1
            while stack:
                v = stack.pop()
                for p in perms:
                    w = p[v]
                    if label[w] < 0:
                        label[w] = c
                        stack.append(w)
                        size += 1
            sizes.append(size)
        return label, sizes


def _level_words(machine, k):
    """Names of the level-k words in integer (lexicographic) order."""
    alphabet = machine.alphabet
    return [word_name(alphabet, w) for w in itertools.product(range(len(alphabet)), repeat=k)]


def _check_level_budget(tables, k, budget):
    if (tables.n_letters**k) * 2 * tables.n > budget:
        raise BudgetExceeded("level graph budget exhausted")


def _root_rows(tables):
    """The component of the empty word: one vertex, every state a loop."""
    return (tuple((0, g) for g in range(2 * tables.n)),)


def _lift(rows, a, tables, cap=None):
    """``lift`` that also returns the (vertex, letter) pair of each new
    vertex, encoded as ``vertex * m + letter``, in discovery order."""
    delta, lam = tables.delta, tables.lam
    m = tables.n_letters
    if cap is None:
        cap = len(rows) * m
    elif cap < 1:
        return None
    index = [-1] * (len(rows) * m)
    index[a] = 0
    pairs = [a]
    out = []
    for key in pairs:  # the list grows while it is read: a BFS queue
        v, x = divmod(key, m)
        row = []
        for t, s in rows[v]:
            key2 = t * m + lam[s][x]
            j = index[key2]
            if j < 0:
                j = len(pairs)
                if j >= cap:
                    return None
                index[key2] = j
                pairs.append(key2)
            row.append((j, delta[s][x]))
        out.append(tuple(row))
    return tuple(out), pairs


def lift(rows, a, tables, cap=None):
    """The marked component of ``w a`` from the marked component of ``w``.

    A component is a tuple of rows; vertices are numbered in breadth-first
    discovery order from the base, and ``rows[v][g] = (target, reached state
    code)`` with labels in signed-code order.  The vertices of the lift are
    the pairs (v, x) reachable from (0, a): state g takes (v, x) to
    (t, lam[s][x]) reaching delta[s][x], where (t, s) = rows[v][g].  They
    are numbered breadth-first from (0, a), so the result is the same tuple
    as ``canonical_marked`` of the component of ``w a``.  Returns None as
    soon as the component has more than ``cap`` vertices.
    """
    lifted = _lift(rows, a, tables, cap)
    return None if lifted is None else lifted[0]


def _component_raw(tables, word, budget=DEFAULT_VERTEX_BUDGET):
    """Breadth-first orbit of a word under all signed states.

    Returns (vertices in discovery order, edges) with edges mapping
    (word, state code) to (image word, reached state code).  Built by
    lifting the empty word's component letter by letter.
    """
    m = tables.n_letters
    rows = _root_rows(tables)
    words = [()]
    for a in word:
        lifted = _lift(rows, a, tables, budget)
        if lifted is None:
            raise BudgetExceeded("orbit vertex budget exhausted")
        rows, pairs = lifted
        words = [words[key // m] + (key % m,) for key in pairs]
    edges = {
        (words[v], g): (words[t], s)
        for v, row in enumerate(rows)
        for g, (t, s) in enumerate(row)
    }
    return words, edges


@dataclass
class TransducerComponent:
    """One weak component of a level graph, with input and output labels."""

    machine: object
    base: str
    vertices: tuple
    edges: dict  # (vertex, state name) -> (vertex, state name)
    generators: tuple

    @property
    def size(self):
        return len(self.vertices)

    def canonical_form(self):
        """Marked canonical serialization; equal forms mean isomorphic
        components with matching labels."""
        return canonical_marked(
            lambda v, g: self.edges[(v, g)], self.base, self.generators
        )

    def input_automaton(self):
        edges = {(v, g): w for (v, g), (w, _) in self.edges.items()}
        return InverseAutomaton(self.vertices, self.generators, edges, self.base)

    def input_adjacency(self):
        adj = {v: [] for v in self.vertices}
        for (v, g), (w, _) in self.edges.items():
            adj[v].append((g, w))
        return adj

    def output_adjacency(self):
        """Adjacency with edges labelled by their output states (may be
        nondeterministic)."""
        adj = {v: [] for v in self.vertices}
        for (v, _), (w, s) in self.edges.items():
            adj[v].append((s, w))
        return adj


def _component_named(machine, tables, order, edges):
    names = {w: word_name(machine.alphabet, w) for w in order}
    gens = tuple(tables.names)
    named_edges = {
        (names[v], gens[g]): (names[w], gens[s]) for (v, g), (w, s) in edges.items()
    }
    return TransducerComponent(
        machine, names[order[0]], tuple(names[w] for w in order), named_edges, gens
    )


def level_component(machine, word, budget=DEFAULT_VERTEX_BUDGET):
    """The marked component of ``word`` in its level graph."""
    tables = _signed_tables(machine)
    word_idx = tuple(machine.alphabet.index(x) for x in parse_word(machine.alphabet, word))
    order, edges = _component_raw(tables, word_idx, budget)
    return _component_named(machine, tables, order, edges)


def orbit_oracle(machine, word, budget=DEFAULT_VERTEX_BUDGET):
    """Independent construction of the component of ``word``.

    Runs breadth-first search directly through the public action functions
    instead of the level-graph tables; used to cross-check level_graph.
    """
    start = parse_word(machine.alphabet, word)
    if not all(
        len({machine.outputs[q][a] for a in range(len(machine.alphabet))})
        == len(machine.alphabet)
        for q in range(len(machine.states))
    ):
        raise NotInvertible("level structures require an invertible machine")
    gens = tuple(machine.states) + tuple(inverse_name(s) for s in machine.states)
    tables = SignedTables(machine)
    seen = {start}
    order = [start]
    edges = {}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for g in gens:
            w, next_states = act_pair(machine, (g,), v, _tables=tables)
            edges[(v, g)] = (w, next_states[0])
            if w not in seen:
                if len(seen) >= budget:
                    raise BudgetExceeded("orbit vertex budget exhausted")
                seen.add(w)
                order.append(w)
                queue.append(w)

    names = {
        w: word_name(machine.alphabet, tuple(machine.alphabet.index(x) for x in w))
        for w in order
    }
    named_edges = {
        (names[v], g): (names[w], s) for (v, g), (w, s) in edges.items()
    }
    return TransducerComponent(
        machine, names[start], tuple(names[w] for w in order), named_edges, gens
    )


@dataclass
class LevelGraph:
    """The full level-k action graph of an invertible machine."""

    machine: object
    k: int
    vertices: tuple  # word names, lexicographic
    edges: dict  # (vertex, state name) -> (vertex, state name)
    generators: tuple

    def components(self):
        """Vertex sets of the weak components, each sorted, in order of
        their smallest word; the orbits of the machine's level action."""
        tables = _signed_tables(self.machine)
        labels, sizes = LevelAction(tables, self.k, n_codes=tables.n).orbits()
        groups = [[] for _ in sizes]
        for v, c in zip(self.vertices, labels):
            groups[c].append(v)
        return [sorted(g) for g in groups]

    def component(self, word):
        """The marked component of one vertex, as a transducer component."""
        return level_component(self.machine, word)


def level_graph(machine, k, budget=DEFAULT_VERTEX_BUDGET):
    """Materialize the full level-k graph of an invertible machine."""
    tables = _signed_tables(machine)
    _check_level_budget(tables, k, budget)
    action = LevelAction(tables, k)
    perm, sec = action.perm, action.sections()
    names = _level_words(machine, k)
    gens = tuple(tables.names)
    edges = {
        (name, gens[g]): (names[perm[g][v]], gens[sec[g][v]])
        for v, name in enumerate(names)
        for g in range(len(gens))
    }
    return LevelGraph(machine, k, tuple(names), edges, gens)


def component_sizes(machine, k, budget=DEFAULT_VERTEX_BUDGET):
    """Sizes of the components of level ``k``, in order of their smallest
    word.  ``budget`` is in ``level_graph``'s unit, m^k words times 2n
    signed states, though no graph is built."""
    tables = _signed_tables(machine)
    _check_level_budget(tables, k, budget)
    return LevelAction(tables, k, n_codes=tables.n).orbits()[1]


def schreier_stabilizer_generators(machine, word):
    """Generators of the stabilizer of ``word`` in the machine's group.

    Takes the spanning-tree basis of the loop language of the component and
    reverses each word, converting path reading into the acting convention:
    every returned state word w satisfies act_output(machine, w, word) == word.
    """
    return _stabilizer_generators(level_component(machine, word))


def _stabilizer_generators(comp):
    return [tuple(reversed(b)) for b in basis(comp.input_automaton())]


@dataclass
class GrowthReport:
    """Per-level component statistics of the level graphs."""

    levels: int
    chi: list  # chi[i] = smallest component size at level i+1
    component_sizes: list  # sorted (size, count) pairs per level
    monotone: bool
    strictly_increasing: bool
    stabilization_level: int  # first level from which chi stays constant
    dual_norm: int
    bound_satisfied: bool  # chi(n) <= dual_norm ** n at every level


def growth_chi(machine, levels, budget=DEFAULT_VERTEX_BUDGET):
    """Smallest-component growth over levels 1..levels."""
    tables = _signed_tables(machine)
    # Positive states suffice for connectivity.
    action = LevelAction(tables, n_codes=tables.n)
    spent = 0
    chi = []
    multisets = []
    for k in range(1, levels + 1):
        spent += action.size * action.m
        if spent > budget:
            raise BudgetExceeded(
                "growth budget exhausted at level %d" % k,
                partial=_growth_report(machine, chi, multisets),
            )
        action.deepen()
        sizes = action.orbits()[1]
        chi.append(min(sizes))
        multisets.append(sorted(Counter(sizes).items()))
    return _growth_report(machine, chi, multisets)


def _growth_report(machine, chi, multisets):
    from .constructions import dual

    c = norm(dual(machine))
    monotone = all(chi[i] <= chi[i + 1] for i in range(len(chi) - 1))
    strict = all(chi[i] < chi[i + 1] for i in range(len(chi) - 1))
    stab = len(chi)
    for i in range(len(chi) - 1, -1, -1):
        if chi[i] == chi[-1]:
            stab = i + 1
        else:
            break
    bound = all(chi[i] <= c ** (i + 1) for i in range(len(chi)))
    return GrowthReport(
        levels=len(chi),
        chi=chi,
        component_sizes=multisets,
        monotone=monotone,
        strictly_increasing=strict,
        stabilization_level=stab,
        dual_norm=c,
        bound_satisfied=bound,
    )


class _ChainLevel:
    """One level of a stabilizer chain: a base point, the strong generators
    that fix the earlier base points, and the Schreier tree of the base
    point's orbit under them.  ``edge[x]`` is the index of the generator
    that first reached ``x`` (-1 at the base point, None off the orbit)."""

    def __init__(self, base, n):
        self.base = base
        self.gens = []
        self.invs = []
        self.edge = [None] * n
        self.edge[base] = -1
        self.orbit = [base]
        self.checked = set()  # (point, generator index) Schreier pairs sifted

    def add(self, g):
        """Add a strong generator and close the orbit under it."""
        inv = [0] * len(g)
        for x, y in enumerate(g):
            inv[y] = x
        self.gens.append(g)
        self.invs.append(tuple(inv))
        edge, orbit = self.edge, self.orbit
        for x in orbit:  # the list grows while it is read: a BFS queue
            for i, h in enumerate(self.gens):
                y = h[x]
                if edge[y] is None:
                    edge[y] = i
                    orbit.append(y)

    def climb(self, g):
        """``g`` followed by the inverse of the transversal element that
        takes the base point to ``g[base]``; it fixes the base point."""
        base, edge, invs = self.base, self.edge, self.invs
        x = g[base]
        while x != base:
            inv = invs[edge[x]]
            g = tuple(map(inv.__getitem__, g))
            x = inv[x]
        return g

    def transversal(self, x):
        """The element of the Schreier tree that takes the base point to ``x``."""
        path = []
        while x != self.base:
            j = self.edge[x]
            path.append(self.gens[j])
            x = self.invs[j][x]
        u = tuple(range(len(self.edge)))
        for g in reversed(path):
            u = tuple(map(g.__getitem__, u))
        return u


def _sift(chain, g, start):
    """Strip ``g`` through the levels from ``start`` on: the residue and the
    level where it left an orbit (``len(chain)`` when it passed them all)."""
    for i in range(start, len(chain)):
        level = chain[i]
        if level.edge[g[level.base]] is None:
            return g, i
        g = level.climb(g)
    return g, len(chain)


def _residue(chain, i):
    """Sift the unchecked Schreier generators of level ``i`` through the
    levels below it: the first residue that is not the identity, with the
    level where it stopped, or None when the level is complete."""
    level = chain[i]
    identity = tuple(range(len(level.edge)))
    for x in level.orbit:
        u = None
        for j, s in enumerate(level.gens):
            if (x, j) in level.checked:
                continue
            level.checked.add((x, j))
            if level.edge[s[x]] == j:
                continue  # a tree edge: the Schreier generator is trivial
            if u is None:
                u = level.transversal(x)
            h, stop = _sift(chain, level.climb(tuple(map(s.__getitem__, u))), i + 1)
            if h != identity:
                return h, stop
    return None


def _stabilizer_chain(gens, n, budget=DEFAULT_ORDER_BUDGET):
    """A base and strong generating set of the group generated by the
    permutations ``gens`` of ``range(n)`` (tuples, ``g[x]`` the image of x).

    Deterministic Schreier–Sims (Sims 1970; Seress, *Permutation Group
    Algorithms*, 2003, section 4.2): a level is complete when every Schreier
    generator of its orbit sifts to the identity through the levels below
    it; a residue that does not becomes a strong generator of every level
    whose earlier base points it fixes.  Transversals are Schreier trees,
    and the group order is the product of the orbit lengths.  ``budget``
    caps the transversal entries, the orbit lengths summed over the chain.
    """
    identity = tuple(range(n))
    chain = []

    def insert(h, first, last):
        if last == len(chain):
            chain.append(_ChainLevel(next(x for x in identity if h[x] != x), n))
        for level in chain[first : last + 1]:
            level.add(h)
        if sum(len(level.orbit) for level in chain) > budget:
            raise BudgetExceeded("level group transversal budget exhausted")

    for g in gens:
        h, stop = _sift(chain, tuple(g), 0)
        if h != identity:
            insert(h, 0, stop)
    i = len(chain) - 1
    while i >= 0:
        found = _residue(chain, i)
        if found is None:
            i -= 1
        else:
            h, stop = found
            insert(h, i + 1, stop)
            i = stop
    return chain


@dataclass
class LevelGroupReport:
    """The finite permutation group induced on one level."""

    order: int
    generator_perms: dict  # state name -> tuple permutation of word indices
    words: tuple  # word names in permutation index order
    order_budget: int = DEFAULT_ORDER_BUDGET  # elements ``automaton`` may enumerate

    @cached_property
    def automaton(self):
        """Cayley graph on the signed state generators, built on first access
        by breadth-first search over the group's elements.

        Vertices are group elements (named by discovery index, identity
        first); reading a state word from the identity vertex ends at the
        vertex of that word's action.  Raises ``BudgetExceeded`` when the
        group has more than ``order_budget`` elements.
        """
        identity = tuple(range(len(self.words)))
        elements = {identity: 0}
        queue = deque([identity])
        edges = {}
        while queue:
            pi = queue.popleft()
            source = str(elements[pi])
            for gname, pg in self.generator_perms.items():
                nxt = tuple(map(pi.__getitem__, pg))
                j = elements.get(nxt)
                if j is None:
                    if len(elements) >= self.order_budget:
                        raise BudgetExceeded("level group order budget exhausted")
                    j = elements[nxt] = len(elements)
                    queue.append(nxt)
                edges[(source, gname)] = str(j)
        return InverseAutomaton(
            tuple(str(i) for i in range(len(elements))),
            tuple(self.generator_perms),
            edges,
            "0",
        )


def level_group(machine, k, order_budget=DEFAULT_ORDER_BUDGET):
    """Permutation group induced by the machine's states on level k.

    The order comes from a stabilizer chain of the positive states' level
    permutations; ``order_budget`` caps its transversal entries, and
    separately the elements that the report's ``automaton`` enumerates.
    """
    tables = _signed_tables(machine)
    action = LevelAction(tables, k)
    chain = _stabilizer_chain(action.perm[: tables.n], action.size, order_budget)
    return LevelGroupReport(
        order=math.prod(len(level.orbit) for level in chain),
        generator_perms={name: tuple(row) for name, row in zip(tables.names, action.perm)},
        words=tuple(_level_words(machine, k)),
        order_budget=order_budget,
    )


class _SectionCheck:
    """Whether signed state words act trivially to a depth, by sections.

    A word acts trivially to depth d when it fixes every letter and each of
    its sections acts trivially to depth d - 1.  ``trivial`` unrolls that
    rule breadth-first over the distinct sections of a word, so each is
    read once, at the shallowest depth it occurs.  The memo holds, for
    every section word read, the largest depth proven trivial and the
    smallest depth proven nontrivial; all words checked through one object
    share it.  ``budget`` caps its entries.
    """

    def __init__(self, tables, budget=None):
        self.delta, self.lam = tables.delta, tables.lam
        self.m = tables.n_letters
        self.budget = budget
        self.memo = {}  # code tuple -> [depth proven trivial, depth proven nontrivial]

    def _entry(self, key):
        entry = self.memo.get(key)
        if entry is None:
            if self.budget is not None and len(self.memo) >= self.budget:
                raise BudgetExceeded("relation check budget exhausted")
            entry = self.memo[key] = [0, math.inf]
        return entry

    def _fail(self, key, depth):
        entry = self._entry(key)
        entry[1] = min(entry[1], depth)
        return False

    def _sections(self, key):
        """The sections of ``key`` at every letter, or None when it moves
        some letter."""
        delta, lam = self.delta, self.lam
        out = []
        for a in range(self.m):
            cur = a
            sec = list(key)
            for i in range(len(sec) - 1, -1, -1):
                s = sec[i]
                sec[i] = delta[s][cur]
                cur = lam[s][cur]
            if cur != a:
                return None
            out.append(tuple(sec))
        return out

    def trivial(self, key, depth):
        """Whether the code tuple ``key`` fixes every word of length
        ``depth``."""
        memo = self.memo
        level = [key]
        seen = {key}
        read = []  # (section word, depth it must act trivially to)
        for j in range(depth):
            rest = depth - j
            deeper = []
            for x in level:
                known = memo.get(x)
                if known is not None:
                    if known[0] >= rest:
                        continue
                    if known[1] <= rest:
                        return self._fail(key, j + known[1])
                sections = self._sections(x)
                if sections is None:
                    self._fail(x, 1)
                    return self._fail(key, j + 1)
                entry = self._entry(x)
                entry[0] = max(entry[0], 1)
                read.append((entry, rest))
                for y in sections:
                    if y not in seen:
                        seen.add(y)
                        deeper.append(y)
            level = deeper
        for entry, rest in read:
            entry[0] = max(entry[0], rest)
        return True


def _reduced_code_words(n, max_len):
    """Reduced words over signed state codes (0..n-1 the states, n..2n-1
    their inverses): one list per length 1..max_len, each length-lex."""
    n2 = 2 * n
    frontier = [()]
    for _ in range(max_len):
        frontier = [
            w + (g,) for w in frontier for g in range(n2) if not w or g != (w[-1] + n) % n2
        ]
        yield frontier


def is_group_relation_up_to(machine, state_word, depth):
    """Whether the state word acts as the identity on all words of the
    given length (hence on all shorter ones)."""
    tables = _signed_tables(machine)
    return _SectionCheck(tables).trivial(tuple(tables.codes(state_word)), depth)


def find_relations(machine, max_len, depth, budget=DEFAULT_NODE_BUDGET):
    """Reduced signed state words up to max_len acting trivially to depth.

    Sorted length-lexicographically in generator declaration order (states
    first, then their inverses).  Witnesses relations of the group only up
    to the chosen verification depth.  All words share one memo of section
    words; ``budget`` caps its entries, and ``BudgetExceeded.partial`` then
    holds every relation of the lengths completed.
    """
    tables = _signed_tables(machine)
    gens = tuple(tables.names)
    check = _SectionCheck(tables, budget)
    found = []
    for length, frontier in enumerate(_reduced_code_words(tables.n, max_len), 1):
        try:
            found += [w for w in frontier if check.trivial(w, depth)]
        except BudgetExceeded as exc:
            partial = {
                "max_len": length - 1,
                "depth": depth,
                "relations": [tuple(gens[c] for c in w) for w in found],
            }
            raise BudgetExceeded(str(exc), partial=partial) from None
    return [tuple(gens[c] for c in w) for w in found]


def colliding_pair(machine, u, v):
    """Single-letter output agreement of two state words.

    This is the depth-one part of action equality: exact equality implies
    it, and it is preserved under simultaneous transitions.
    """
    tables = SignedTables(machine)
    cu = tables.codes(u)
    cv = tables.codes(v)
    for a in range(len(machine.alphabet)):
        if _run(tables, list(cu), [a]) != _run(tables, list(cv), [a]):
            return False
    return True


def semigroup_relation_exact(machine, u, v, budget=10**6):
    """Exact action equality of two state words (see states_equivalent)."""
    return states_equivalent(machine, u, v, budget=budget)


def free_semigroup_check(machine, max_len, budget=DEFAULT_NODE_BUDGET):
    """Search positive state words up to max_len for an action collision.

    Returns None when all actions are pairwise distinct (the semigroup is
    free up to that length), else the first colliding pair length-lex.  All
    words share one state-word table, refined once per length; ``budget``
    caps its nodes, and ``BudgetExceeded.partial`` then holds the largest
    length proven free of collisions.
    """
    table = StateWordTable(SignedTables(machine), budget)
    done = []  # (word, node) of every length so far, length-lex
    level = [((), 0)]
    for length in range(1, max_len + 1):
        try:
            level = [
                (w + (name,), table.node(i, q))
                for w, i in level
                for q, name in enumerate(machine.states)
            ]
            table.close()
        except BudgetExceeded as exc:
            raise BudgetExceeded(
                str(exc), partial={"free_up_to": length - 1, "collision": None}
            ) from None
        cls = table.classes()
        first = {}
        done += level
        for w, i in done:
            if cls[i] in first:
                return (first[cls[i]], w)
            first[cls[i]] = w
    return None
