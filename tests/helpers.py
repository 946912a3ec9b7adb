"""Seeded random machine samplers and small oracles shared by test modules."""

import itertools
import random
from collections import Counter, deque

import mealyforge as mf
from mealyforge.boundary import PeriodicFixEntry
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


# ---------------------------------------------------------------------------
# Stallings folding as the library computed it before the integer-coded
# kernel: one string-named vertex per letter of a flower, a dict union-find
# over the sorted involutive closure, and a second canonical renaming in
# the core.


def oracle_fold(vertices, edges, base, labels, order_seed=None):
    """Folded automaton by a dict union-find over string vertices."""
    vertices = list(vertices)
    edge_list = sorted(mf.involutive_closure(edges))
    if order_seed is not None:
        random.Random(order_seed).shuffle(edge_list)
    parent = {v: v for v in vertices}
    size = {v: 1 for v in vertices}
    out = {v: {} for v in vertices}

    def find(v):
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    def union(a, b):
        stack = [(a, b)]
        while stack:
            x, y = stack.pop()
            rx, ry = find(x), find(y)
            if rx == ry:
                continue
            if size[rx] < size[ry]:
                rx, ry = ry, rx
            parent[ry] = rx
            size[rx] += size[ry]
            small = out.pop(ry)
            big = out[rx]
            for lab, tgt in small.items():
                if lab in big:
                    stack.append((big[lab], tgt))
                else:
                    big[lab] = tgt

    for u, x, v in edge_list:
        while True:
            ru = find(u)
            d = out[ru]
            if x in d:
                if find(d[x]) == find(v):
                    break
                union(d[x], v)
                continue
            d[x] = v
            break

    roots = sorted({find(v) for v in vertices}, key=vertices.index)
    edges_out = {}
    for r in roots:
        for x, tgt in out[r].items():
            edges_out[(r, x)] = find(tgt)
    aut = mf.InverseAutomaton(tuple(roots), tuple(labels), edges_out, find(base))
    return aut.canonical()


def oracle_core(aut):
    """Strip degree-one vertices other than the base, by name."""
    degree = {v: 0 for v in aut.vertices}
    for v, x, w in aut.positive_edges():
        degree[v] += 1
        degree[w] += 1
    alive = set(aut.vertices)
    queue = deque(v for v in aut.vertices if degree[v] <= 1 and v != aut.base)
    incident = {v: [] for v in aut.vertices}
    for v, x, w in aut.positive_edges():
        incident[v].append((w, (v, x, w)))
        incident[w].append((v, (v, x, w)))
    dead_edges = set()
    while queue:
        v = queue.popleft()
        if v not in alive or degree[v] > 1 or v == aut.base:
            continue
        alive.discard(v)
        for other, e in incident[v]:
            if e in dead_edges:
                continue
            dead_edges.add(e)
            degree[other] -= 1
            degree[v] -= 1
            if other in alive and degree[other] <= 1 and other != aut.base:
                queue.append(other)
    edges = {
        (v, x): w
        for (v, x), w in aut.edges.items()
        if v in alive and w in alive
        and (v, x, w) not in dead_edges
        and (w, mf.inverse_name(x), v) not in dead_edges
    }
    vertices = tuple(v for v in aut.vertices if v in alive)
    return mf.InverseAutomaton(vertices, aut.labels, edges, aut.base).canonical()


def _oracle_flower(generators):
    vertices = ["*"]
    edges = []
    for i, word in enumerate(generators):
        word = mf.reduce_word(tuple(word))
        prev = "*"
        for j, x in enumerate(word):
            nxt = "*" if j == len(word) - 1 else "p%d_%d" % (i, j)
            if nxt != "*":
                vertices.append(nxt)
            edges.append((prev, x, nxt))
            prev = nxt
    return vertices, edges, "*"


def oracle_stallings(generators, labels, order_seed=None):
    """Core of the folded flower of the generator words."""
    vertices, edges, base = _oracle_flower(generators)
    return oracle_core(oracle_fold(vertices, edges, base, labels, order_seed))


def oracle_basis(aut):
    """Spanning-tree basis of the loop language, by name."""
    tree = set()
    path = {aut.base: ()}
    order = [aut.base]
    queue = deque([aut.base])
    while queue:
        v = queue.popleft()
        for x in aut.labels:
            w = aut.edges.get((v, x))
            if w is not None and w not in path:
                path[w] = path[v] + (x,)
                tree.add((v, x, w))
                tree.add((w, mf.inverse_name(x), v))
                order.append(w)
                queue.append(w)
    rank = {v: i for i, v in enumerate(order)}
    words = []
    for v, x, w in sorted(aut.positive_edges(), key=lambda e: (rank[e[0]], e[1])):
        if (v, x, w) in tree:
            continue
        words.append(mf.reduce_word(path[v] + (x,) + mf.invert_word(path[w])))
    return words


# ---------------------------------------------------------------------------
# Reduced state words by name, as the periodic scan and the Cayley reports
# enumerated and read them before they shared ``levels._reduced_code_words``
# and one ``levels._SectionCheck``: every candidate is a tuple of names,
# filtered for cancelling neighbours, acted on through ``act_output`` and
# ``act_transition``, and checked for relations with a fresh memo.


def oracle_reduced_tokens(tokens, length):
    """Reduced words of one length over names and their formal inverses."""
    if length == 0:
        yield ()
        return
    for w in itertools.product(tokens, repeat=length):
        if any(w[i] == mf.inverse_name(w[i + 1]) for i in range(len(w) - 1)):
            continue
        yield w


def oracle_evaluate(group, signed_word):
    """Product of a signed word by name, through ``mult`` and ``inverse``."""
    acc = group.elements[0]
    for t in signed_word:
        if t.endswith("^-1") and t[:-3] in group.elements:
            t = group.inverse(t[:-3])
        acc = group.mult(acc, t)
    return acc


def oracle_periodic_scan(machine, max_period, max_gen_len, depth=4):
    """``periodic_stabilizer_scan`` by name, one fresh relation check per
    fixing word."""
    gens = tuple(machine.states) + tuple(mf.inverse_name(s) for s in machine.states)
    entries = []
    for plen in range(1, max_period + 1):
        for w in itertools.product(tuple(machine.alphabet), repeat=plen):
            wname = word_name(machine.alphabet, tuple(machine.alphabet.index(x) for x in w))
            for glen in range(1, max_gen_len + 1):
                for g in oracle_reduced_tokens(gens, glen):
                    s = g
                    seen = set()
                    fixes = True
                    while s not in seen:
                        seen.add(s)
                        if mf.act_output(machine, s, w) != w:
                            fixes = False
                            break
                        s = mf.act_transition(machine, s, w)
                    if fixes:
                        entries.append(
                            PeriodicFixEntry(
                                period_word=wname,
                                state_word=g,
                                nontrivial=not mf.is_group_relation_up_to(machine, g, depth),
                            )
                        )
    return entries


def oracle_relation_recursion(group, k_max, verify_depth=None, budget=10**7):
    """``relation_recursion`` by name: every candidate word's images through
    ``act_transition``, every relation verified with a fresh check."""
    dual_machine = mf.dual(mf.cayley_machine(group))
    tables = SignedTables(dual_machine)
    tokens = tuple(group.elements) + tuple(mf.inverse_name(g) for g in group.elements)
    identity = group.elements[0]
    n_sets = {}
    v_sets = {0: frozenset({()})}
    all_verified = True
    for k in range(1, k_max + 1):
        new_relations = set()
        for v in v_sets[2 * (k - 1)]:
            tail_value = oracle_evaluate(group, tuple(reversed(v)))
            for x in group.elements:
                for y in group.elements:
                    if group.mult(group.mult(x, group.inverse(y)), tail_value) != identity:
                        continue
                    word = v + (mf.inverse_name(y), x)
                    new_relations |= {word[i:] + word[:i] for i in range(len(word))}
        n_sets[2 * k] = frozenset(new_relations)
        if verify_depth is not None:
            for w in new_relations:
                if not mf.is_group_relation_up_to(dual_machine, w, verify_depth):
                    all_verified = False
        if len(tokens) ** (2 * k) > budget:
            raise mf.BudgetExceeded(
                "relation recursion candidate budget exhausted",
                partial=mf.RelationLedger(group, n_sets, v_sets, verify_depth, all_verified),
            )
        v_sets[2 * k] = frozenset(
            u for u in itertools.product(tokens, repeat=2 * k)
            if all(
                mf.act_transition(dual_machine, u, (g,), _tables=tables) in n_sets[2 * k]
                for g in group.elements
            )
        )
    return mf.RelationLedger(group, n_sets, v_sets, verify_depth, all_verified)


def oracle_palindromic_counts(group, max_len):
    """(per_length, palindromic) of ``palindromic_diagnostics`` by name."""
    tokens = tuple(group.elements) + tuple(mf.inverse_name(g) for g in group.elements)
    identity = group.elements[0]
    per_length = {}
    for length in range(1, max_len + 1):
        words = list(oracle_reduced_tokens(tokens, length))
        h = {w for w in words if oracle_evaluate(group, w) == identity}
        hr = {w for w in words if oracle_evaluate(group, tuple(reversed(w))) == identity}
        per_length[length] = (len(h), len(hr), len(h & hr))
    palindromic = all(h == hr == both for h, hr, both in per_length.values())
    return per_length, palindromic


def oracle_stabilizers_trivial(group, k_max, depth):
    """``identity_machine_group_check``'s stabilizer verdict, every basis
    word checked on all input words of length ``depth``."""
    machine = mf.dual(mf.identity_machine_of(group))
    return all(
        not mf.reduce_word(w) or oracle_is_relation(machine, w, depth)
        for k in range(1, k_max + 1)
        for v in itertools.product(tuple(machine.alphabet), repeat=k)
        for w in mf.schreier_stabilizer_generators(machine, v)
    )


def differential_machines(corpus_machines):
    """The invertible machines the fast paths are checked on: the corpus,
    the Cayley, palindrome and identity machines of Z2, Z3, Klein and S3
    with their duals, and seeded random invertible and bireversible
    machines."""
    out = dict(corpus_machines)
    groups = {
        "z2": mf.GroupTable.cyclic(2),
        "z3": mf.GroupTable.cyclic(3),
        "klein": mf.GroupTable.klein(),
        "s3": mf.GroupTable.symmetric3(),
    }
    for g, group in groups.items():
        for kind, build in (
            ("cay", mf.cayley_machine),
            ("pal", mf.palindrome_machine),
            ("id", mf.identity_machine_of),
        ):
            machine = build(group)
            out["%s.%s" % (g, kind)] = machine
            out["%s.%s.dual" % (g, kind)] = mf.dual(machine)
    rng = random.Random(4001)
    for i in range(8):
        out["rinv%d" % i] = rand_invertible(rng, rng.randrange(1, 4), rng.randrange(2, 4))
        out["rbi%d" % i] = rand_bireversible(rng, rng.randrange(2, 4), rng.randrange(2, 4))
    return {name: m for name, m in out.items() if mf.is_invertible(m)}
