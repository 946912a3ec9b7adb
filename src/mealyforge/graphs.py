"""Inverse automata over signed label sets: foldings, languages, morphisms.

Vertices and labels are names; every edge u --x--> v has a companion edge
v --x^-1--> u, and an inverse automaton keeps at most one x-edge out of each
vertex.  Words are read along paths starting at the base vertex, and the
language of a marked graph is the set of reduced words labelling loops at
the base.

Folding, cores and bases work on integer codes: label i of a label tuple
has code i, and vertices are array rows indexed by code under one array
union-find.  Names come back only in the ``InverseAutomaton`` returned.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from .errors import BudgetExceeded, UnknownSymbol
from .machines import inverse_name, is_inverse_name, reduce_word


def signed_labels(positives):
    """Label tuple closed under formal inversion, positives first."""
    positives = tuple(positives)
    return positives + tuple(inverse_name(x) for x in positives)

DEFAULT_PAIR_BUDGET = 10**6


@dataclass
class InverseAutomaton:
    """A folded involutive graph: at most one edge per (vertex, label)."""

    vertices: tuple
    labels: tuple
    edges: dict  # (vertex, label) -> vertex
    base: str

    def step(self, vertex, label):
        return self.edges.get((vertex, label))

    def read(self, word):
        """Endpoint of the path reading ``word`` from the base, or None."""
        v = self.base
        for x in word:
            v = self.edges.get((v, x))
            if v is None:
                return None
        return v

    def adjacency(self):
        adj = {v: [] for v in self.vertices}
        for (v, x), w in self.edges.items():
            adj[v].append((x, w))
        return adj

    def positive_edges(self):
        """One representative per geometric edge, positively labelled."""
        for (v, x), w in sorted(self.edges.items()):
            if not x.endswith("^-1"):
                yield (v, x, w)

    def canonical(self):
        """Rename vertices breadth-first from the base (labels in declared order)."""
        order = {self.base: 0}
        queue = deque([self.base])
        while queue:
            v = queue.popleft()
            for x in self.labels:
                w = self.edges.get((v, x))
                if w is not None and w not in order:
                    order[w] = len(order)
                    queue.append(w)
        for v in self.vertices:  # unreachable vertices, in declared order
            if v not in order:
                order[v] = len(order)
        name = {v: str(i) for v, i in order.items()}
        vertices = tuple(sorted(name.values(), key=int))
        edges = {(name[v], x): name[w] for (v, x), w in self.edges.items()}
        return InverseAutomaton(vertices, self.labels, edges, name[self.base])


def involutive_closure(edges):
    """Add the companion of every directed edge."""
    out = set()
    for u, x, v in edges:
        out.add((u, x, v))
        out.add((v, inverse_name(x), u))
    return out


def find(parent, v):
    """Root of ``v`` in the union-find forest ``parent``, halving its path."""
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _label_codes(labels):
    """Code of each label (its position) and the code of its inverse."""
    code = {x: c for c, x in enumerate(labels)}
    missing = [inverse_name(x) for x in labels if inverse_name(x) not in code]
    if missing:
        raise UnknownSymbol("labels %r lack the inverse label %r" % (labels, missing[0]))
    return code, [code[inverse_name(x)] for x in labels]


def _numbered(vertices):
    """Code of each vertex name, in order of first occurrence."""
    return {v: i for i, v in enumerate(dict.fromkeys(vertices))}


def _coded(code, word, labels):
    try:
        return [code[x] for x in word]
    except KeyError as exc:
        raise UnknownSymbol("label %r not in labels %r" % (exc.args[0], labels)) from None


def _reduced(codes, inv):
    """Free reduction of a coded word."""
    out = []
    for c in codes:
        if out and out[-1] == inv[c]:
            out.pop()
        else:
            out.append(c)
    return out


class _Folding:
    """An integer-coded involutive graph, folded as edges arrive.

    ``rows[v][c]`` is the target of the c-edge out of vertex v, or -1.  A
    target may be any member of its class, so it is read through ``find``;
    merged-away vertices lose their row.  Every link sets an edge and its
    companion, and a link into an occupied slot identifies the two targets
    (Stallings' fold), with union by size.
    """

    def __init__(self, inv, n_vertices):
        self.inv = inv
        self.rows = [[-1] * len(inv) for _ in range(n_vertices)]
        self.parent = list(range(n_vertices))
        self.size = [1] * n_vertices

    def add_vertex(self):
        v = len(self.rows)
        self.rows.append([-1] * len(self.inv))
        self.parent.append(v)
        self.size.append(1)
        return v

    def link(self, u, c, v):
        """Add the edge u --c--> v and its companion, folding clashes."""
        parent, rows = self.parent, self.rows
        u, v = find(parent, u), find(parent, v)
        clashes = []
        for a, x, b in ((u, c, v), (v, self.inv[c], u)):
            t = rows[a][x]
            if t < 0:
                rows[a][x] = b
            else:
                clashes.append((t, b))
        self.merge(clashes)

    def merge(self, pairs):
        """Identify each pair of vertices and every pair this forces."""
        parent, size, rows = self.parent, self.size, self.rows
        while pairs:
            a, b = pairs.pop()
            a, b = find(parent, a), find(parent, b)
            if a == b:
                continue
            if size[a] < size[b]:
                a, b = b, a
            parent[b] = a
            size[a] += size[b]
            big = rows[a]
            for c, t in enumerate(rows[b]):
                if t >= 0:
                    if big[c] < 0:
                        big[c] = t
                    else:
                        pairs.append((big[c], t))
            rows[b] = None

    def read_loop(self, base, word):
        """Fold in a loop at ``base`` labelled by the reduced coded ``word``.

        The word is read forward from the base and backward into it as far
        as the graph allows; only the unread middle gets new vertices, so a
        word that mostly reads through costs one pass over its letters.
        """
        parent, rows, inv = self.parent, self.rows, self.inv
        base = find(parent, base)
        i, j = 0, len(word)
        u = v = base
        while i < j:
            t = rows[u][word[i]]
            if t < 0:
                break
            if parent[t] != t:
                t = rows[u][word[i]] = find(parent, t)
            u = t
            i += 1
        while j > i:
            t = rows[v][inv[word[j - 1]]]
            if t < 0:
                break
            if parent[t] != t:
                t = rows[v][inv[word[j - 1]]] = find(parent, t)
            v = t
            j -= 1
        if i == j:
            self.merge([(u, v)])
            return
        # A middle that is not cyclically reduced would claim the same slot
        # of u twice, at its first and its last letter: grow a stem first.
        while u == v and word[i] == inv[word[j - 1]]:
            w = self.add_vertex()
            rows[u][word[i]] = w
            rows[w][inv[word[i]]] = u
            u = v = w
            i += 1
            j -= 1
        for c in word[i:j - 1]:
            w = self.add_vertex()
            rows[u][c] = w
            rows[w][inv[c]] = u
            u = w
        c = word[j - 1]
        rows[u][c] = v
        rows[v][inv[c]] = u

    def strip(self, base, positive):
        """Alive flags after iteratively removing vertices of degree at
        most one other than the base; ``positive`` lists one code of each
        label pair, so each geometric edge is counted once."""
        rows, n = self.rows, len(self.rows)
        degree = [0] * n
        incident = [[] for _ in range(n)]
        live_edge = []
        for v in range(n):
            if rows[v] is None:
                continue
            for c in positive:
                w = rows[v][c]
                if w >= 0:
                    degree[v] += 1
                    degree[w] += 1
                    incident[v].append((w, len(live_edge)))
                    incident[w].append((v, len(live_edge)))
                    live_edge.append(True)
        alive = [row is not None for row in rows]
        queue = [v for v in range(n) if alive[v] and degree[v] <= 1 and v != base]
        while queue:
            v = queue.pop()
            if not alive[v]:
                continue
            alive[v] = False
            for w, e in incident[v]:
                if live_edge[e]:
                    live_edge[e] = False
                    degree[w] -= 1
                    degree[v] -= 1
                    if alive[w] and degree[w] <= 1 and w != base:
                        queue.append(w)
        return alive

    def automaton(self, base, labels, alive=None):
        """The graph as an ``InverseAutomaton``, renamed canonically: the
        base's component breadth-first over the labels in declared order,
        then any other classes in the order of their first vertex."""
        parent, rows = self.parent, self.rows
        for row in rows:
            if row is not None:
                for c, t in enumerate(row):
                    if t >= 0 and parent[t] != t:
                        row[c] = find(parent, t)
        if alive is None:
            alive = [row is not None for row in rows]
        base = find(parent, base)
        number = [-1] * len(rows)
        number[base] = 0
        order = [base]
        for v in order:
            for t in rows[v]:
                if t >= 0 and alive[t] and number[t] < 0:
                    number[t] = len(order)
                    order.append(t)
        for v in range(len(rows)):
            r = find(parent, v)
            if alive[r] and number[r] < 0:
                number[r] = len(order)
                order.append(r)
        names = [str(i) for i in range(len(order))]
        edges = {
            (names[i], labels[c]): names[number[t]]
            for i, v in enumerate(order)
            for c, t in enumerate(rows[v])
            if t >= 0 and alive[t]
        }
        return InverseAutomaton(tuple(names), tuple(labels), edges, names[0])


def fold(vertices, edges, base, labels, order_seed=None):
    """Stallings folding: identify targets of equally-labelled edges.

    ``edges`` is an iterable of directed (u, label, v) triples; companions
    are added automatically, and a label outside ``labels`` raises
    ``UnknownSymbol``.  ``order_seed`` shuffles the order in which edges
    are folded in; the result is canonically renamed and does not depend
    on it.
    """
    index = _numbered(vertices)
    code, inv = _label_codes(labels)
    edges = list(edges)
    codes = _coded(code, [x for _, x, _ in edges], labels)
    triples = [(index[u], c, index[v]) for (u, _, v), c in zip(edges, codes)]
    if order_seed is not None:
        random.Random(order_seed).shuffle(triples)
    graph = _Folding(inv, len(index))
    for u, c, v in triples:
        graph.link(u, c, v)
    return graph.automaton(index[base], labels)


def _positive_codes(labels):
    return [c for c, x in enumerate(labels) if not is_inverse_name(x)]


def core(aut):
    """Iteratively strip vertices of degree one other than the base."""
    index = _numbered(aut.vertices)
    code, inv = _label_codes(aut.labels)
    codes = _coded(code, [x for _, x in aut.edges], aut.labels)
    graph = _Folding(inv, len(index))
    for ((v, _), w), c in zip(aut.edges.items(), codes):
        graph.rows[index[v]][c] = index[w]
    base = index[aut.base]
    return graph.automaton(base, aut.labels, graph.strip(base, _positive_codes(aut.labels)))


def stallings_automaton(generators, labels, order_seed=None):
    """Folded core automaton of the subgroup generated by the given words.

    Each word is freely reduced and folded in as a loop at the base; a
    label outside ``labels`` raises ``UnknownSymbol``.  Every vertex then
    lies inside a reduced loop at the base, so the folded graph is already
    its own core.  ``order_seed`` shuffles the order of the words, which
    does not change the result.
    """
    code, inv = _label_codes(labels)
    words = [_reduced(_coded(code, word, labels), inv) for word in generators]
    if order_seed is not None:
        random.Random(order_seed).shuffle(words)
    graph = _Folding(inv, 1)
    for word in words:
        graph.read_loop(0, word)
    return graph.automaton(0, labels)


def membership(aut, word):
    """Whether the reduced word labels a loop at the base."""
    return aut.read(reduce_word(tuple(word))) == aut.base


def basis(aut):
    """Free basis of the loop language, from a breadth-first spanning tree.

    Returns one reduced word per geometric edge outside the tree, taken in
    breadth-first order of the source vertex and then by label name; the
    count equals (number of geometric edges) - (number of vertices) + 1.
    """
    labels, edges = aut.labels, aut.edges
    code, inv = _label_codes(labels)
    foreign = {x for _, x in edges} - code.keys()
    if foreign:
        raise UnknownSymbol("label %r not in labels %r" % (min(foreign), labels))
    number = {aut.base: 0}
    order = [aut.base]
    rows = []
    tree = [(-1, -1)]  # tree[j] = (parent, code) of vertex j's discovery edge
    path, back = [()], [()]  # tree path to each vertex, and its inverse
    for i, v in enumerate(order):
        row = []
        for c, x in enumerate(labels):
            w = edges.get((v, x))
            if w is None:
                row.append(-1)
                continue
            if w not in number:
                number[w] = len(order)
                order.append(w)
                tree.append((i, c))
                path.append(path[i] + (c,))
                back.append((inv[c],) + back[i])
            row.append(number[w])
        rows.append(row)
    positive = sorted(_positive_codes(labels), key=labels.__getitem__)
    words = []
    for i, row in enumerate(rows):
        for c in positive:
            j = row[c]
            if j < 0 or tree[j] == (i, c) or tree[i] == (j, inv[c]):
                continue
            word = path[i] + (c,) + back[j]
            # Tree paths are reduced, so only the letters around c can cancel.
            if tree[i][1] == inv[c] or tree[j][1] == c:
                word = _reduced(word, inv)
            words.append(tuple(map(labels.__getitem__, word)))
    return words


@dataclass
class InclusionResult:
    included: bool
    witness: tuple | None = None


def language_included(adj1, v1, adj2, v2, budget=DEFAULT_PAIR_BUDGET):
    """Decide path-language inclusion L(g1, v1) <= L(g2, v2).

    ``adj1``/``adj2`` map vertices to iterables of (label, target); the
    second graph may be nondeterministic, handled by subset construction.
    Languages here consist of all loop labellings (not only reduced ones);
    when the second graph is complete this coincides with reduced-language
    inclusion, and on involutive deterministic graphs it holds exactly when
    a base-respecting morphism exists.  On failure the result carries a
    loop word witnessing non-inclusion.
    """
    start = (v1, frozenset([v2]))
    seen = {start: None}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        x, subset = state
        if x == v1 and v2 not in subset:
            word = []
            cur = state
            while seen[cur] is not None:
                cur, label = seen[cur]
                word.append(label)
            return InclusionResult(False, tuple(reversed(word)))
        for label, y in adj1.get(x, ()):
            targets = frozenset(
                t for s in subset for lab, t in adj2.get(s, ()) if lab == label
            )
            nxt = (y, targets)
            if nxt not in seen:
                if len(seen) >= budget:
                    raise BudgetExceeded("language inclusion pair budget exhausted")
                seen[nxt] = (state, label)
                queue.append(nxt)
    return InclusionResult(True, None)


def morphism_exists(a1, a2):
    """Base-respecting labelled-graph morphism a1 -> a2, or None.

    The morphism is forced: the image of each vertex is determined by any
    path from the base, so a single breadth-first pass either completes the
    map consistently or proves none exists.
    """
    f = {a1.base: a2.base}
    queue = deque([a1.base])
    while queue:
        v = queue.popleft()
        for x in a1.labels:
            w = a1.edges.get((v, x))
            if w is None:
                continue
            img = a2.edges.get((f[v], x))
            if img is None:
                return None
            if w in f:
                if f[w] != img:
                    return None
            else:
                f[w] = img
                queue.append(w)
    for (v, x), w in a1.edges.items():
        if v in f and w in f and a2.edges.get((f[v], x)) != f[w]:
            return None
    return f


def canonical_marked(step, base, labels):
    """Breadth-first canonical form of a deterministic labelled graph.

    ``step(vertex, label)`` returns the target vertex, a (target, payload)
    pair, or None; the serialization replaces vertices by discovery indices
    and is identical for isomorphic marked graphs.
    """
    order = {base: 0}
    queue = deque([base])
    rows = []
    while queue:
        v = queue.popleft()
        row = []
        for x in labels:
            res = step(v, x)
            if res is None:
                row.append(None)
                continue
            if isinstance(res, tuple) and len(res) == 2:
                target, payload = res
            else:
                target, payload = res, None
            if target not in order:
                order[target] = len(order)
                queue.append(target)
            row.append((order[target], payload))
        rows.append(tuple(row))
    return tuple(rows)


def automaton_canonical_form(aut):
    """Canonical form of an inverse automaton marked at its base."""
    return canonical_marked(lambda v, x: aut.edges.get((v, x)), aut.base, aut.labels)
