"""Seeded random machine samplers and small oracles shared by test modules."""

import itertools
from collections import Counter, deque

import mealyforge as mf
from mealyforge.levels import _growth_report, word_name
from mealyforge.machines import SignedTables, _run


def ball_membership(generators, cap):
    """All subgroup elements of reduced length <= cap, by saturating products."""
    signed = [tuple(g) for g in generators] + [
        mf.invert_word(g) for g in generators
    ]
    seen = {()}
    queue = deque([()])
    while queue:
        word = queue.popleft()
        for g in signed:
            nxt = mf.reduce_word(word + g)
            if len(nxt) <= cap and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def make(n, m, transitions, outputs):
    return mf.MealyMachine.from_tables(
        tuple("s%d" % i for i in range(n)),
        tuple(str(j) for j in range(m)),
        transitions,
        outputs,
    )


def rand_machine(rng, n, m):
    """Uniformly random transition and output tables."""
    transitions = [[rng.randrange(n) for _ in range(m)] for _ in range(n)]
    outputs = [[rng.randrange(m) for _ in range(m)] for _ in range(n)]
    return make(n, m, transitions, outputs)


def rand_invertible(rng, n, m):
    """Random machine whose output rows are permutations of the alphabet."""
    transitions = [[rng.randrange(n) for _ in range(m)] for _ in range(n)]
    outputs = []
    for _ in range(n):
        row = list(range(m))
        rng.shuffle(row)
        outputs.append(row)
    return make(n, m, transitions, outputs)


def rand_reversible(rng, n, m):
    """Random machine whose transition columns are permutations of the states."""
    cols = []
    for _ in range(m):
        col = list(range(n))
        rng.shuffle(col)
        cols.append(col)
    transitions = [[cols[a][q] for a in range(m)] for q in range(n)]
    outputs = [[rng.randrange(m) for _ in range(m)] for _ in range(n)]
    return make(n, m, transitions, outputs)


def rand_bireversible(rng, n, m, tries=10000):
    """Rejection-sample a bireversible machine (permutation rows and columns)."""
    for _ in range(tries):
        cols = []
        for _ in range(m):
            col = list(range(n))
            rng.shuffle(col)
            cols.append(col)
        transitions = [[cols[a][q] for a in range(m)] for q in range(n)]
        outputs = []
        for _ in range(n):
            row = list(range(m))
            rng.shuffle(row)
            outputs.append(row)
        candidate = make(n, m, transitions, outputs)
        if mf.is_bireversible(candidate):
            return candidate
    raise RuntimeError("no bireversible machine found in %d tries" % tries)


# ---------------------------------------------------------------------------
# Slow paths kept as oracles: one breadth-first search per state word and a
# Moore refinement loop, as the library computed them before the shared
# state-word table and Hopcroft refinement.


def oracle_signature(machine, states, budget=10**6):
    """Action signature of a state word from its own reachable sub-machine."""
    tables = SignedTables(machine)
    start = tuple(tables.codes(states))
    n_letters = tables.n_letters
    nodes = {start: 0}
    rows = []  # rows[i] = (outputs tuple, targets tuple)
    queue = deque([start])
    while queue:
        node = queue.popleft()
        outs = []
        targets = []
        for a in range(n_letters):
            codes = list(node)
            b = _run(tables, codes, [a])[0]
            nxt = tuple(codes)
            if nxt not in nodes:
                if len(nodes) >= budget:
                    raise mf.BudgetExceeded("action signature node budget exhausted")
                nodes[nxt] = len(nodes)
                queue.append(nxt)
            outs.append(b)
            targets.append(nodes[nxt])
        rows.append((tuple(outs), tuple(targets)))
    cls = {}
    for i, (outs, _) in enumerate(rows):
        cls.setdefault(outs, len(cls))
    labels = [cls[rows[i][0]] for i in range(len(rows))]
    while True:
        sig = {}
        new = [0] * len(rows)
        for i in range(len(rows)):
            key = (labels[i], tuple(labels[t] for t in rows[i][1]))
            if key not in sig:
                sig[key] = len(sig)
            new[i] = sig[key]
        if new == labels:
            break
        labels = new
    rep = {}
    for i in range(len(rows)):
        rep.setdefault(labels[i], i)
    order = {labels[0]: 0}
    queue = deque([labels[0]])
    serial = []
    while queue:
        c = queue.popleft()
        outs, targets = rows[rep[c]]
        row = []
        for a in range(n_letters):
            t = labels[targets[a]]
            if t not in order:
                order[t] = len(order)
                queue.append(t)
            row.append((outs[a], order[t]))
        serial.append(tuple(row))
    return tuple(serial)


def oracle_minimize(machine):
    """Quotient by action equality of single states, by Moore refinement."""
    n = len(machine.states)
    m = len(machine.alphabet)
    labels = {}
    for q in range(n):
        labels.setdefault(machine.outputs[q], len(labels))
    cls = [labels[machine.outputs[q]] for q in range(n)]
    while True:
        sig = {}
        new = [0] * n
        for q in range(n):
            key = (cls[q], tuple(cls[machine.transitions[q][a]] for a in range(m)))
            if key not in sig:
                sig[key] = len(sig)
            new[q] = sig[key]
        if new == cls:
            break
        cls = new
    reps = {}
    for q in range(n):
        reps.setdefault(cls[q], q)
    order = sorted(reps, key=reps.get)
    relabel = {c: i for i, c in enumerate(order)}
    trans = [
        tuple(relabel[cls[machine.transitions[reps[c]][a]]] for a in range(m))
        for c in order
    ]
    outs = [machine.outputs[reps[c]] for c in order]
    return mf.MealyMachine.from_tables(
        tuple(machine.states[reps[c]] for c in order), machine.alphabet, trans, outs
    )


def oracle_free_check(machine, max_len):
    """First colliding pair of positive state words, one signature per word."""
    seen = {}
    for length in range(1, max_len + 1):
        for w in itertools.product(machine.states, repeat=length):
            sig = oracle_signature(machine, w)
            if sig in seen:
                return (seen[sig], w)
            seen[sig] = w
    return None


def oracle_torsion(machine, max_len, max_exp):
    """Torsion witnesses as (word, index, period), one signature per power."""
    dual_machine = mf.dual(machine)
    found = []
    for length in range(1, max_len + 1):
        for u in itertools.product(tuple(machine.alphabet), repeat=length):
            seen = {}
            for e in range(1, max_exp + 1):
                sig = oracle_signature(dual_machine, u * e)
                if sig in seen:
                    found.append((u, seen[sig], e - seen[sig]))
                    break
                seen[sig] = e
    return found


# ---------------------------------------------------------------------------
# Slow paths kept as oracles for the component lift: one breadth-first
# search per word, each edge running a state over the whole word, and a
# separate canonical form per component, as the boundary searches computed
# them before ``levels.lift``.


def oracle_component_raw(tables, word, budget=10**7):
    """(vertices in discovery order, edges) of the component of ``word``."""
    gens = range(2 * tables.n)
    seen = {word}
    order = [word]
    edges = {}
    queue = deque([word])
    while queue:
        v = queue.popleft()
        for g in gens:
            out = []
            s = g
            for a in v:
                out.append(tables.lam[s][a])
                s = tables.delta[s][a]
            w = tuple(out)
            edges[(v, g)] = (w, s)
            if w not in seen:
                if len(seen) >= budget:
                    raise mf.BudgetExceeded("orbit vertex budget exhausted")
                seen.add(w)
                order.append(w)
                queue.append(w)
    return order, edges


def oracle_canon(tables, word):
    """Canonical marked form of the component of ``word``."""
    _, edges = oracle_component_raw(tables, word)
    return mf.canonical_marked(
        lambda v, g: edges[(v, g)], word, list(range(2 * tables.n))
    )


def oracle_finiteness(machine, horizon):
    """Finiteness verdict from one component per word of every level."""
    cert = mf.infiniteness_certificate(machine)
    if cert is not None:
        return mf.FinitenessVerdict(
            kind="infinite",
            evidence="reversible but not bireversible: output letter %r (%s)"
            % (cert.output_letter, cert.reason),
            proven=True,
        )
    tables = SignedTables(machine)
    m = len(machine.alphabet)
    prev = {(): oracle_canon(tables, ())}
    chi = []
    for k in range(1, horizon + 1):
        canons = {}
        sizes = []
        stable = True
        for w in itertools.product(range(m), repeat=k):
            canon = oracle_canon(tables, w)
            sizes.append(len(canon))
            canons[w] = canon
            if canon != prev[w[:-1]]:
                stable = False
        if stable:
            return mf.FinitenessVerdict(
                kind="finite",
                bound=max(sizes),
                level=k,
                evidence="every level-%d component matches its prefix component" % k,
                proven=True,
            )
        chi.append(min(sizes))
        prev = canons
    if len(chi) >= 2 and all(chi[i] < chi[i + 1] for i in range(len(chi) - 1)):
        return mf.FinitenessVerdict(
            kind="infinite",
            level=horizon,
            evidence="smallest component size grew strictly through the horizon "
            "(heuristic): %r" % (chi,),
        )
    return mf.FinitenessVerdict(kind="unknown", evidence="no evidence within horizon")


def oracle_decide_bounded(machine, limit, horizon):
    """Bounded-component verdict from one component per candidate word, or
    None when no level up to ``horizon`` decides."""
    tables = SignedTables(machine)
    m = len(machine.alphabet)
    frontier = []  # (word, canon, parent)
    for k in range(1, horizon + 1):
        if k == 1:
            candidates = [((a,), None) for a in range(m)]
        else:
            candidates = [(node[0] + (a,), node) for node in frontier for a in range(m)]
        level_nodes = []
        level_canons = set()
        for word, parent in candidates:
            canon = oracle_canon(tables, word)
            size = len(canon)
            if size > limit:
                continue
            anc = parent
            while anc is not None:
                if anc[1] == canon:
                    return mf.BoundedVerdict(
                        kind="yes",
                        limit=limit,
                        prefix=word_name(machine.alphabet, anc[0]),
                        period=word_name(machine.alphabet, word[len(anc[0]):]),
                        component_size=size,
                    )
                anc = anc[2]
            if canon in level_canons:
                continue
            level_canons.add(canon)
            level_nodes.append((word, canon, parent))
        if not level_nodes:
            best = None
            seen = set()
            for w in itertools.product(range(m), repeat=k):
                if w not in seen:
                    vertices, _ = oracle_component_raw(tables, w)
                    seen.update(vertices)
                    if best is None or len(vertices) < best:
                        best = len(vertices)
            return mf.BoundedVerdict(kind="no", limit=limit, level=k, chi_at_level=best)
        frontier = level_nodes
    return None


# Slow paths kept as oracles for ``levels.LevelAction`` and the section
# check: every state runs over every whole word, components come from a
# union-find, and a relation is checked on all m^depth input words, as the
# level functions computed them before the wreath recursion.


def oracle_apply_state(tables, code, word):
    """Run one signed state over a word of letter indices."""
    out = []
    s = code
    for a in word:
        out.append(tables.lam[s][a])
        s = tables.delta[s][a]
    return tuple(out), s


def oracle_growth_chi(machine, levels):
    """GrowthReport from a union-find over every word of every level."""
    tables = SignedTables(machine)
    m = len(machine.alphabet)
    chi = []
    multisets = []
    for k in range(1, levels + 1):
        words = list(itertools.product(range(m), repeat=k))
        index = {w: i for i, w in enumerate(words)}
        parent = list(range(len(words)))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for w in words:
            for g in range(tables.n):
                img, _ = oracle_apply_state(tables, g, w)
                a, b = find(index[w]), find(index[img])
                if a != b:
                    parent[a] = b
        sizes = Counter(find(i) for i in range(len(words)))
        chi.append(min(sizes.values()))
        multisets.append(sorted(Counter(sizes.values()).items()))
    return _growth_report(machine, chi, multisets)


def oracle_level_graph(machine, k):
    """(vertices, edges, components) of level k, named as ``level_graph``."""
    tables = SignedTables(machine)
    m = len(machine.alphabet)
    words = list(itertools.product(range(m), repeat=k))
    names = {w: word_name(machine.alphabet, w) for w in words}
    edges = {}
    for w in words:
        for g in range(2 * tables.n):
            img, s = oracle_apply_state(tables, g, w)
            edges[(names[w], tables.state_name(g))] = (names[img], tables.state_name(s))
    vertices = tuple(names[w] for w in words)
    index = {v: i for i, v in enumerate(vertices)}
    parent = list(range(len(vertices)))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for (v, _), (w, _) in edges.items():
        rv, rw = find(index[v]), find(index[w])
        if rv != rw:
            parent[rv] = rw
    groups = {}
    for v in vertices:
        groups.setdefault(find(index[v]), []).append(v)
    return vertices, edges, [sorted(g) for g in groups.values()]


def oracle_level_group(machine, k):
    """(order, state name -> permutation of the level-k word indices, word
    names in index order) of the group induced on level k."""
    tables = SignedTables(machine)
    words = list(itertools.product(range(len(machine.alphabet)), repeat=k))
    index = {w: i for i, w in enumerate(words)}
    perms = {
        tables.state_name(g): tuple(
            index[oracle_apply_state(tables, g, w)[0]] for w in words
        )
        for g in range(2 * tables.n)
    }
    identity = tuple(range(len(words)))
    elements = {identity}
    queue = deque([identity])
    while queue:
        pi = queue.popleft()
        for pg in perms.values():
            nxt = tuple(pi[pg[x]] for x in range(len(words)))
            if nxt not in elements:
                elements.add(nxt)
                queue.append(nxt)
    return len(elements), perms, tuple(word_name(machine.alphabet, w) for w in words)


def oracle_is_relation(machine, state_word, depth):
    """Whether the state word fixes every input word of length ``depth``."""
    tables = SignedTables(machine)
    codes = tables.codes(state_word)
    for u in itertools.product(range(len(machine.alphabet)), repeat=depth):
        cur_codes = list(codes)
        for a in u:
            cur = a
            for i in range(len(cur_codes) - 1, -1, -1):
                s = cur_codes[i]
                cur_codes[i] = tables.delta[s][cur]
                cur = tables.lam[s][cur]
            if cur != a:
                return False
    return True


def oracle_reduced_words(machine, max_len):
    """Reduced signed state words of lengths 1..max_len, length-lex in
    generator declaration order."""
    gens = tuple(machine.states) + tuple(mf.inverse_name(s) for s in machine.states)
    words = []
    frontier = [()]
    for _ in range(max_len):
        frontier = [
            w + (g,) for w in frontier for g in gens
            if not (w and w[-1] == mf.inverse_name(g))
        ]
        words += frontier
    return words


def oracle_find_relations(machine, max_len, depth):
    """Reduced words up to max_len fixing every input word of length depth."""
    return [
        w for w in oracle_reduced_words(machine, max_len)
        if oracle_is_relation(machine, w, depth)
    ]
