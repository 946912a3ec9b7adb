"""Boundary dynamics: bounded orbits, finiteness evidence, torsion.

The component of a word w in its level graph is a transducer in its own
right, with input and output labels both drawn from the signed states.  Two
facts drive everything here: the component of an extension wu is determined
up to marked isomorphism by the component of w together with the base
machine, and components can only shrink or keep their size along prefixes.

The first fact is ``levels.lift``.  Number the component of w breadth-first
from w and write rows[v][g] = (t, s) when the signed state g takes vertex v
to vertex t and reaches state s.  The vertices of the component of wa are
the pairs (v, x) reachable from (0, a), and g takes (v, x) to
(t, lambda(s, x)), reaching delta(s, x).  Numbered breadth-first from
(0, a), these rows are the canonical marked form of the component of wa, so
the searches below compare components as rows and never build words.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .constructions import dual
from .errors import BudgetExceeded, NotInvertible
from .graphs import (
    canonical_marked,  # noqa: F401  (bench/tracing.py wraps it under this name)
    language_included,
)
from .levels import (
    DEFAULT_VERTEX_BUDGET,
    LevelAction,
    _component_raw,  # noqa: F401  (bench/tracing.py wraps it under this name)
    _reduced_code_words,
    _root_rows,
    _SectionCheck,
    _signed_tables,
    level_group,
    lift,
    norm,
    word_name,
)
from .machines import (
    DEFAULT_NODE_BUDGET,
    SignedTables,
    StateWordTable,
    _run,
    action_signature,  # noqa: F401  (bench/tracing.py wraps it under this name)
    is_bireversible,
    is_invertible,
    is_reversible,
    parse_word,
)


# ---------------------------------------------------------------------------
# Swapping structure of components


def swapping_inclusion(component, p1, p2, budget=10**6):
    """Whether every output-path label from p1 is an input-path label from p2."""
    result = language_included(
        component.output_adjacency(), p1, component.input_adjacency(), p2, budget
    )
    return result.included


def swapping_invariant(component, p1, p2, budget=10**6):
    """Mutual output/input language inclusion between two vertices."""
    return swapping_inclusion(component, p1, p2, budget) and swapping_inclusion(
        component, p2, p1, budget
    )


def is_supersymmetric(component, budget=10**6):
    """Whether the swapping invariant holds for every ordered vertex pair."""
    return all(
        swapping_inclusion(component, p1, p2, budget)
        for p1 in component.vertices
        for p2 in component.vertices
    )


def _path_between(component, p1, p2):
    """Input word and output word of some path p1 -> p2."""
    prev = {p1: None}
    queue = deque([p1])
    while queue:
        v = queue.popleft()
        if v == p2:
            break
        for g in component.generators:
            w, s = component.edges[(v, g)]
            if w not in prev:
                prev[w] = (v, g, s)
                queue.append(w)
    if p2 not in prev:
        raise ValueError("vertices lie in different components")
    ins, outs = [], []
    v = p2
    while prev[v] is not None:
        u, g, s = prev[v]
        ins.append(g)
        outs.append(s)
        v = u
    return tuple(reversed(ins)), tuple(reversed(outs))


def _read_path(component, start, word):
    """Endpoint and output word of reading ``word`` from ``start``."""
    v = start
    out = []
    for g in word:
        v, s = component.edges[(v, g)]
        out.append(s)
    return v, tuple(out)


@dataclass
class SwappingCycle:
    """A cycle of vertices produced by iterated output/input swapping."""

    vertices: list
    period_word: str  # concatenation of the cycle's vertex words


def swapping_cycle(component, p1, p2):
    """Iterate the swapping step from a path p1 -> p2 until a vertex repeats.

    Requires the swapping inclusion from p1 to p2.  Each step reads the
    previous output word as an input word; every step reaches a vertex not
    yet visited or returns, so the walk ends within one step more than the
    component has vertices.  Concatenating the cycle's vertex words yields a
    word whose periodic extensions have components of bounded size.
    """
    if not swapping_inclusion(component, p1, p2):
        raise ValueError("swapping inclusion fails; the iteration is not defined")
    _, h = _path_between(component, p1, p2)
    visited = {p1: 0}
    sequence = [p1]
    p = p2
    while p not in visited:
        visited[p] = len(sequence)
        sequence.append(p)
        p, h = _read_path(component, p, h)
    cycle = sequence[visited[p]:]
    sep = "," if any("," in v for v in cycle) else ""
    return SwappingCycle(cycle, sep.join(cycle))


# ---------------------------------------------------------------------------
# Finiteness and infiniteness evidence


@dataclass
class InfinitenessCertificate:
    """Witness that a reversible invertible machine is not bireversible.

    For such machines the generated group is infinite: some output letter's
    reverse transition relation fails to be a permutation.
    """

    output_letter: str
    reason: str


def infiniteness_certificate(machine):
    """Certificate that the machine generates an infinite group, or None.

    Sound but not complete: applies only to invertible reversible machines
    that are not bireversible.
    """
    if not (is_invertible(machine) and is_reversible(machine)):
        return None
    if is_bireversible(machine):
        return None
    n = len(machine.states)
    for b in range(len(machine.alphabet)):
        sources = []
        targets = []
        for q in range(n):
            for a in range(len(machine.alphabet)):
                if machine.outputs[q][a] == b:
                    sources.append(q)
                    targets.append(machine.transitions[q][a])
        if len(set(sources)) != n:
            return InfinitenessCertificate(
                machine.alphabet[b],
                "some state has no or several edges with this output letter",
            )
        if len(set(targets)) != n:
            return InfinitenessCertificate(
                machine.alphabet[b],
                "two edges with this output letter share a target state",
            )
    return None


@dataclass
class FinitenessVerdict:
    kind: str  # "finite" | "infinite" | "unknown"
    bound: int | None = None  # for "finite": every component has at most this size
    level: int | None = None  # level at which the evidence appeared
    evidence: str = ""
    proven: bool = False  # False for the heuristic "infinite" and for "unknown"


def finiteness_semidecision(machine, horizon=6, budget=DEFAULT_VERTEX_BUDGET):
    """Search for finiteness or infiniteness evidence up to a level horizon.

    Finite (proven): at some level every word's marked component is
    isomorphic to the component of its length-(k-1) prefix; components then
    stay isomorphic on all deeper levels, so their sizes are bounded.
    Infinite: either the non-bireversibility certificate fires (proven), or
    the smallest component size grows strictly through the whole horizon
    (heuristic, ``proven=False``).

    Each level keeps one marked component per class and lifts it by every
    letter.  ``budget`` caps the vertices of the lifted components summed
    over the search; ``BudgetExceeded.partial`` then holds the smallest
    component size of every level completed.
    """
    cert = infiniteness_certificate(machine)
    if cert is not None:
        return FinitenessVerdict(
            kind="infinite",
            evidence="reversible but not bireversible: output letter %r (%s)"
            % (cert.output_letter, cert.reason),
            proven=True,
        )
    tables = _signed_tables(machine)
    letters = range(len(machine.alphabet))
    classes = {_root_rows(tables)}
    spent = 0
    chi = []
    for k in range(1, horizon + 1):
        lifted = set()
        stable = True
        for rows in classes:
            for a in letters:
                child = lift(rows, a, tables, cap=budget - spent)
                if child is None:
                    raise BudgetExceeded(
                        "finiteness scan budget exhausted",
                        partial={"levels": k - 1, "chi": chi},
                    )
                spent += len(child)
                lifted.add(child)
                if child != rows:
                    stable = False
        sizes = [len(rows) for rows in lifted]
        if stable:
            return FinitenessVerdict(
                kind="finite",
                bound=max(sizes),
                level=k,
                evidence="every level-%d component matches its prefix component" % k,
                proven=True,
            )
        chi.append(min(sizes))
        classes = lifted
    if len(chi) >= 2 and all(chi[i] < chi[i + 1] for i in range(len(chi) - 1)):
        return FinitenessVerdict(
            kind="infinite",
            level=horizon,
            evidence="smallest component size grew strictly through the horizon "
            "(heuristic): %r" % (chi,),
        )
    return FinitenessVerdict(kind="unknown", evidence="no evidence within horizon")


# ---------------------------------------------------------------------------
# The gap function and the boundedness decision


@dataclass
class ZetaValue:
    value: int
    below_threshold: bool


def zeta(machine, n):
    """Guaranteed number of initial levels with a component of size <= y.

    Exact integer evaluation of the threshold sum; returns the largest y
    whose threshold is at most n, together with a flag marking n below the
    first threshold.  Undefined when the dual's largest component is a
    single state.
    """
    if not is_invertible(machine):
        raise NotInvertible("zeta requires an invertible machine")
    c = norm(dual(machine))
    m = len(machine.alphabet)
    if c < 2:
        raise ValueError("zeta is undefined when the dual has norm 1")
    e = m**2

    def threshold(y):
        total = (m**e) * sum(c ** (e * j) for j in range(1, y + 1))
        return total - y * (y + 1) // 2

    if n < threshold(1):
        return ZetaValue(0, True)
    y = 1
    while threshold(y + 1) <= n:
        y += 1
    return ZetaValue(y, False)


@dataclass
class BoundedVerdict:
    """Outcome of the bounded-component decision procedure.

    ``kind`` is "yes" or "no".  A search stopped by its budget carries
    either an "exhausted" verdict with ``horizon`` the levels completed or a
    "no" verdict without ``chi_at_level`` as ``BudgetExceeded.partial``.
    """

    kind: str  # "yes" | "no"; "exhausted" only as a budget partial
    limit: int
    prefix: str | None = None  # yes: word x with comp(x) recurring
    period: str | None = None  # yes: word y with comp(x (y^t)) all isomorphic
    component_size: int | None = None  # yes: the recurring component's size
    level: int | None = None  # no: first level with all components > limit
    chi_at_level: int | None = None  # no: smallest component size there
    horizon: int | None = None  # exhausted partial: levels completed


@dataclass
class _ChainNode:
    word: tuple
    rows: tuple  # the marked component, as returned by lift
    parent: object


def decide_bounded_schreier(machine, limit, horizon=None, budget=DEFAULT_VERTEX_BUDGET):
    """Decide whether some boundary point keeps components of size <= limit.

    Grows a tree of finite words whose components stay within the limit,
    deduplicating each level by marked component isomorphism (sound because
    the component of an extension depends only on the marked component of
    the prefix).  A node isomorphic to one of its ancestors proves "yes"
    with an eventually-periodic witness; a level with no surviving words
    proves "no".

    The search always decides.  Below the root, every node it keeps ends a
    chain of pairwise distinct marked classes of size <= limit, since a
    repeat returns "yes" at once, and there are only finitely many such
    classes.  So with N classes the frontier empties or a repeat appears by
    level N + 1.  ``horizon`` is accepted for old callers and ignored.

    Each node's component is lifted by every letter, and a lift stops as
    soon as it exceeds the limit.  ``budget`` caps the vertices of all
    components built, a stopped lift counting limit + 1, together with the
    components of the whole level that a "no" verdict measures.
    """
    tables = _signed_tables(machine)
    m = len(machine.alphabet)
    letters = range(m)
    spent = 0
    frontier = [_ChainNode((), _root_rows(tables), None)]
    k = 0
    while frontier:
        k += 1
        level_nodes = []
        level_canons = set()
        for parent in frontier:
            for a in letters:
                rows = lift(parent.rows, a, tables, cap=limit)
                spent += limit + 1 if rows is None else len(rows)
                if spent > budget:
                    raise BudgetExceeded(
                        "bounded-orbit search budget exhausted",
                        partial=BoundedVerdict(kind="exhausted", limit=limit, horizon=k - 1),
                    )
                if rows is None:
                    continue
                word = parent.word + (a,)
                anc = parent
                while anc.word:  # every ancestor but the empty word's node
                    if anc.rows == rows:
                        alphabet = machine.alphabet
                        return BoundedVerdict(
                            kind="yes",
                            limit=limit,
                            prefix=word_name(alphabet, anc.word),
                            period=word_name(alphabet, word[len(anc.word):]),
                            component_size=len(rows),
                        )
                    anc = anc.parent
                if rows in level_canons:
                    continue
                level_canons.add(rows)
                level_nodes.append(_ChainNode(word, rows, parent))
        frontier = level_nodes
    # No word of length k has a small component; the whole level settles
    # the question.  Its components hold all m^k words between them.
    if m**k > budget - spent:
        raise BudgetExceeded(
            "bounded-orbit search budget exhausted",
            partial=BoundedVerdict(kind="no", limit=limit, level=k),
        )
    chi_here = min(LevelAction(tables, k, n_codes=tables.n).orbits()[1])
    return BoundedVerdict(kind="no", limit=limit, level=k, chi_at_level=chi_here)


def verify_bounded_witness(machine, verdict, periods=4):
    """Re-expand a "yes" verdict: the component of the prefix must have
    ``component_size`` <= ``limit`` vertices, the period must be nonempty,
    and the components of prefix + t copies of the period must all match
    the prefix's, for t = 1..periods."""
    if verdict.kind != "yes":
        raise ValueError("only yes-verdicts carry a witness")
    tables = _signed_tables(machine)
    alphabet = machine.alphabet
    base = [alphabet.index(x) for x in parse_word(alphabet, verdict.prefix)]
    per = [alphabet.index(x) for x in parse_word(alphabet, verdict.period)]
    if not per:
        return False
    reference = _root_rows(tables)
    for a in base:
        reference = lift(reference, a, tables, cap=verdict.limit)
        if reference is None:
            return False
    if len(reference) != verdict.component_size:
        return False
    rows = reference
    for _ in range(periods):
        for a in per:
            # Components never shrink along a word, so one that outgrows
            # the witness cannot come back to it.
            rows = lift(rows, a, tables, cap=len(reference))
            if rows is None:
                return False
        if rows != reference:
            return False
    return True


# ---------------------------------------------------------------------------
# Torsion


@dataclass
class TorsionWitness:
    """A word whose action has equal powers: u^index acts like u^(index+period)."""

    word: tuple
    index: int
    period: int


def torsion_search(machine, max_len, max_exp, budget=DEFAULT_NODE_BUDGET):
    """Scan short input words for torsion in the dual semigroup's action.

    For each word u the actions of u, uu, uuu, ... on the machine's states
    (through the coupled action) eventually repeat iff u generates a finite
    monogenic semigroup; the first repetition gives the minimal index and
    period.  Returns the list of witnesses found, in word order.

    The powers of all words share one state-word table of the dual, refined
    once per exponent; a word drops out at its first repetition.  ``budget``
    caps the table's nodes; ``BudgetExceeded.partial`` then holds the
    witnesses found up to the last exponent completed, which is the whole
    answer for that exponent.
    """
    tables = SignedTables(dual(machine))
    table = StateWordTable(tables, budget)
    words = [
        u
        for length in range(1, max_len + 1)
        for u in itertools.product(tuple(machine.alphabet), repeat=length)
    ]
    codes = [tables.codes(u) for u in words]
    powers = [[] for _ in words]  # powers[j][e - 1] = node of words[j]^e
    found = {}
    open_words = list(range(len(words)))
    for e in range(1, max_exp + 1):
        if not open_words:
            break
        try:
            for j in open_words:
                last = powers[j][-1] if powers[j] else 0
                powers[j].append(table.word(codes[j], start=last))
            table.close()
        except BudgetExceeded as exc:
            partial = {
                "max_len": max_len,
                "max_exp": e - 1,
                "witnesses": [found[j] for j in sorted(found)],
            }
            raise BudgetExceeded(str(exc), partial=partial) from None
        cls = table.classes()
        still_open = []
        for j in open_words:
            earlier = [cls[i] for i in powers[j][:-1]]
            if cls[powers[j][-1]] in earlier:
                index = earlier.index(cls[powers[j][-1]]) + 1
                found[j] = TorsionWitness(word=words[j], index=index, period=e - index)
            else:
                still_open.append(j)
        open_words = still_open
    return [found[j] for j in sorted(found)]


def torsion_bound_ell(machine, witness, order_budget=10**6):
    """Size bound for components of periodic points built from a torsion word.

    Uses the order of the level group at the witness word's length, raised
    to index + period - 1; exact big-integer arithmetic.
    """
    k = len(parse_word(machine.alphabet, witness.word))
    report = level_group(machine, k, order_budget)
    return report.order ** (witness.index + witness.period - 1)


@dataclass
class PeriodicFixEntry:
    period_word: str
    state_word: tuple
    nontrivial: bool


def periodic_stabilizer_scan(
    machine, max_period, max_gen_len, depth=4, budget=DEFAULT_NODE_BUDGET
):
    """Find state words fixing some periodic boundary point w^infinity.

    A state word fixes w^infinity iff iterating "act on w, take the reached
    state word" only ever outputs w again until a state word repeats.  Each
    fixing word is also checked for acting nontrivially on words of the
    configured depth, which makes it interesting evidence.  Candidates are
    the reduced words up to ``max_gen_len`` in length-lex order.
    ``budget`` counts the state words read through the machine, one per
    period word read; ``BudgetExceeded.partial`` then holds the largest
    period length completed and every entry up to it.
    """
    tables = _signed_tables(machine)
    check = _SectionCheck(tables)
    names = tables.names
    candidates = [g for words in _reduced_code_words(tables.n, max_gen_len) for g in words]
    entries = []
    spent = 0
    for plen in range(1, max_period + 1):
        done = len(entries)
        for w in itertools.product(range(len(machine.alphabet)), repeat=plen):
            wname = word_name(machine.alphabet, w)
            for g in candidates:
                s = g
                seen = set()
                while s not in seen:
                    spent += 1
                    if spent > budget:
                        raise BudgetExceeded(
                            "periodic scan budget exhausted",
                            partial={"max_period": plen - 1, "entries": entries[:done]},
                        )
                    seen.add(s)
                    codes = list(s)
                    if tuple(_run(tables, codes, w)) != w:
                        break
                    s = tuple(codes)
                else:
                    entries.append(
                        PeriodicFixEntry(
                            period_word=wname,
                            state_word=tuple(names[c] for c in g),
                            nontrivial=not check.trivial(g, depth),
                        )
                    )
    return entries
