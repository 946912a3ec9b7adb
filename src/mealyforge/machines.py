"""Letter-to-letter Mealy transducers and their coupled actions.

A machine has a finite state set Q and a finite alphabet A, and for every
pair (q, a) a next state delta(q, a) and an output letter lambda(q, a).
Machines act on input words letter by letter; words of states act with the
rightmost state touching the raw input first, so that appending a state to
the right of a state word pre-composes its action.

Formally-inverted states are written with a ``^-1`` suffix ("q^-1") and are
available whenever the machine is invertible; they act by the inverse of
the state's output permutation, with transitions mirrored accordingly.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .errors import (
    BudgetExceeded,
    DuplicateTransition,
    MissingTransition,
    NotInvertible,
    SignedStateOnNonInvertible,
    UnknownSymbol,
)

INVERSE_SUFFIX = "^-1"


def inverse_name(name):
    """Formal inverse of a state or letter name ("q" <-> "q^-1")."""
    if name.endswith(INVERSE_SUFFIX):
        return name[: -len(INVERSE_SUFFIX)]
    return name + INVERSE_SUFFIX


def is_inverse_name(name):
    return name.endswith(INVERSE_SUFFIX)


def base_name(name):
    return name[: -len(INVERSE_SUFFIX)] if is_inverse_name(name) else name


@dataclass(frozen=True)
class SignedLetter:
    """A symbol together with a formal sign; positive letters embed."""

    name: str
    sign: int = 1

    def inverse(self):
        return SignedLetter(self.name, -self.sign)

    def __str__(self):
        return self.name if self.sign > 0 else self.name + INVERSE_SUFFIX

    @classmethod
    def parse(cls, token: str) -> "SignedLetter":
        if token.endswith(INVERSE_SUFFIX):
            return cls(token[: -len(INVERSE_SUFFIX)], -1)
        return cls(token, 1)


def invert_word(word):
    """Group inverse of a signed word: reverse and flip every sign."""
    return tuple(inverse_name(x) for x in reversed(word))


def reduce_word(word):
    """Free reduction: cancel adjacent x, x^-1 pairs."""
    out = []
    for token in word:
        if out and out[-1] == inverse_name(token):
            out.pop()
        else:
            out.append(token)
    return tuple(out)


@dataclass(frozen=True)
class Alphabet:
    """An immutable, ordered set of symbol names."""

    symbols: tuple

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if len(set(self.symbols)) != len(self.symbols):
            raise UnknownSymbol("duplicate symbols in alphabet: %r" % (self.symbols,))
        for s in self.symbols:
            if not s or any(c.isspace() for c in s) or "#" in s or ":" in s:
                raise UnknownSymbol("bad symbol name: %r" % (s,))

    def index(self, symbol):
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise UnknownSymbol("symbol %r not in alphabet %r" % (symbol, self.symbols)) from None

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __contains__(self, symbol):
        return symbol in self.symbols

    def __getitem__(self, i):
        return self.symbols[i]


@dataclass(frozen=True)
class MealyMachine:
    """A complete deterministic letter-to-letter transducer.

    ``transitions[q][a]`` and ``outputs[q][a]`` are state/letter indices.
    """

    states: tuple
    alphabet: Alphabet
    transitions: tuple
    outputs: tuple

    @classmethod
    def from_tables(cls, states, alphabet, transitions, outputs):
        if not isinstance(alphabet, Alphabet):
            alphabet = Alphabet(tuple(alphabet))
        states = tuple(states)
        if len(set(states)) != len(states):
            raise UnknownSymbol("duplicate state names: %r" % (states,))
        for s in states:
            if not s or any(c.isspace() for c in s) or "#" in s or ":" in s:
                raise UnknownSymbol("bad state name: %r" % (s,))
        transitions = tuple(tuple(row) for row in transitions)
        outputs = tuple(tuple(row) for row in outputs)
        n, m = len(states), len(alphabet)
        if len(transitions) != n or len(outputs) != n:
            raise MissingTransition("tables must have one row per state")
        for q in range(n):
            if len(transitions[q]) != m or len(outputs[q]) != m:
                raise MissingTransition("state %r has an incomplete row" % (states[q],))
            for a in range(m):
                if not 0 <= transitions[q][a] < n:
                    raise UnknownSymbol("bad target index in row of %r" % (states[q],))
                if not 0 <= outputs[q][a] < m:
                    raise UnknownSymbol("bad output index in row of %r" % (states[q],))
        return cls(states, alphabet, transitions, outputs)

    @classmethod
    def from_edges(cls, states, alphabet, edges):
        """Build a machine from (state, in_letter, next_state, out_letter) tuples."""
        if not isinstance(alphabet, Alphabet):
            alphabet = Alphabet(tuple(alphabet))
        states = tuple(states)
        sidx = {s: i for i, s in enumerate(states)}
        if len(sidx) != len(states):
            raise UnknownSymbol("duplicate state names: %r" % (states,))
        n, m = len(states), len(alphabet)
        trans = [[None] * m for _ in range(n)]
        outs = [[None] * m for _ in range(n)]
        for src, a_in, dst, a_out in edges:
            if src not in sidx:
                raise UnknownSymbol("unknown state %r" % (src,))
            if dst not in sidx:
                raise UnknownSymbol("unknown state %r" % (dst,))
            q, a = sidx[src], alphabet.index(a_in)
            b = alphabet.index(a_out)
            if trans[q][a] is not None:
                raise DuplicateTransition("two edges at (%r, %r)" % (src, a_in))
            trans[q][a] = sidx[dst]
            outs[q][a] = b
        for q in range(n):
            for a in range(m):
                if trans[q][a] is None:
                    raise MissingTransition(
                        "no edge at (%r, %r)" % (states[q], alphabet[a])
                    )
        return cls.from_tables(states, alphabet, trans, outs)

    def state_index(self, name):
        try:
            return self.states.index(name)
        except ValueError:
            raise UnknownSymbol("state %r not in machine" % (name,)) from None

    def edges(self):
        """Iterate (state, in_letter, next_state, out_letter) name tuples."""
        for q, s in enumerate(self.states):
            for a, x in enumerate(self.alphabet):
                yield (s, x, self.states[self.transitions[q][a]], self.alphabet[self.outputs[q][a]])

    def word(self, text):
        """Parse an input word: a string splits per character for one-character
        alphabets, otherwise on commas or whitespace."""
        return parse_word(self.alphabet, text)


def parse_word(alphabet, text):
    """Coerce ``text`` to a tuple of letters of ``alphabet``."""
    if isinstance(text, str):
        if text in alphabet:
            parts = [text]
        elif "," in text:
            parts = [p for p in text.split(",") if p]
        elif any(c.isspace() for c in text):
            parts = text.split()
        elif all(len(s) == 1 for s in alphabet):
            parts = list(text)
        else:
            parts = [text] if text else []
        word = tuple(parts)
    else:
        word = tuple(text)
    for x in word:
        if x not in alphabet:
            raise UnknownSymbol("letter %r not in alphabet %r" % (x, tuple(alphabet)))
    return word


def is_invertible(machine):
    """True when every state's output map is a permutation of the alphabet."""
    m = len(machine.alphabet)
    return all(len(set(row)) == m for row in machine.outputs)


def is_reversible(machine):
    """True when every letter's transition map is a permutation of the states."""
    n = len(machine.states)
    for a in range(len(machine.alphabet)):
        if len({machine.transitions[q][a] for q in range(n)}) != n:
            return False
    return True


def is_bireversible(machine):
    """True when the machine and its output automaton are both reversible."""
    if not is_reversible(machine):
        return False
    n = len(machine.states)
    for b in range(len(machine.alphabet)):
        sources = []
        targets = []
        for q in range(n):
            for a in range(len(machine.alphabet)):
                if machine.outputs[q][a] == b:
                    sources.append(q)
                    targets.append(machine.transitions[q][a])
        if len(sources) != n or len(set(sources)) != n or len(set(targets)) != n:
            return False
    return True


class SignedTables:
    """Transition/output tables extended to formally inverted states.

    State indices 0..n-1 are the machine's own states; when the machine is
    invertible, indices n..2n-1 are their formal inverses.
    """

    def __init__(self, machine):
        self.machine = machine
        n = len(machine.states)
        self.n = n
        self.n_letters = len(machine.alphabet)
        delta = [list(row) for row in machine.transitions]
        lam = [list(row) for row in machine.outputs]
        self.invertible = is_invertible(machine)
        if self.invertible:
            for q in range(n):
                drow = [0] * self.n_letters
                lrow = [0] * self.n_letters
                for a in range(self.n_letters):
                    b = machine.outputs[q][a]
                    lrow[b] = a
                    drow[b] = machine.transitions[q][a] + n
                delta.append(drow)
                lam.append(lrow)
        self.delta = delta
        self.lam = lam

    def state_code(self, name):
        """Index of a possibly-signed state name; literal state names take
        precedence over the signed reading of an inverse suffix."""
        if name in self.machine.states:
            return self.machine.states.index(name)
        if is_inverse_name(name):
            if not self.invertible:
                raise SignedStateOnNonInvertible(
                    "state %r used on a non-invertible machine" % (name,)
                )
            return self.machine.state_index(base_name(name)) + self.n
        return self.machine.state_index(name)

    def state_name(self, code):
        if code < self.n:
            return self.machine.states[code]
        return inverse_name(self.machine.states[code - self.n])

    def codes(self, state_word):
        if isinstance(state_word, str):
            raise TypeError(
                "state words must be sequences of state names, not a bare string"
            )
        return [self.state_code(s) for s in state_word]


def _run(tables, codes, letters):
    """Thread every input letter through the state word, rightmost state first."""
    delta, lam = tables.delta, tables.lam
    out = []
    for a in letters:
        cur = a
        for i in range(len(codes) - 1, -1, -1):
            s = codes[i]
            codes[i] = delta[s][cur]
            cur = lam[s][cur]
        out.append(cur)
    return out


def act_output(machine, states, word, _tables=None):
    """Output word produced by the state word acting on ``word``."""
    tables = _tables or SignedTables(machine)
    codes = tables.codes(states)
    letters = [machine.alphabet.index(x) for x in parse_word(machine.alphabet, word)]
    out = _run(tables, codes, letters)
    return tuple(machine.alphabet[b] for b in out)


def act_transition(machine, states, word, _tables=None):
    """State word reached after the state word processes ``word``."""
    tables = _tables or SignedTables(machine)
    codes = tables.codes(states)
    letters = [machine.alphabet.index(x) for x in parse_word(machine.alphabet, word)]
    _run(tables, codes, letters)
    return tuple(tables.state_name(c) for c in codes)


def act_pair(machine, states, word, _tables=None):
    """Both halves of the coupled action: (output word, next state word)."""
    tables = _tables or SignedTables(machine)
    codes = tables.codes(states)
    letters = [machine.alphabet.index(x) for x in parse_word(machine.alphabet, word)]
    out = _run(tables, codes, letters)
    return (
        tuple(machine.alphabet[b] for b in out),
        tuple(tables.state_name(c) for c in codes),
    )


def states_equivalent(machine, u, v, budget=10**6):
    """Exact action equality of two state words, by breadth-first bisimulation.

    Explores the closure of the pair (u, v) under single-letter transitions,
    comparing single-letter outputs; equivalent to partition refinement on
    the reachable part of the coupled power machine.
    """
    tables = SignedTables(machine)
    start = (tuple(tables.codes(u)), tuple(tables.codes(v)))
    seen = {start}
    queue = deque([start])
    n_letters = tables.n_letters
    while queue:
        cu, cv = queue.popleft()
        for a in range(n_letters):
            xu = list(cu)
            xv = list(cv)
            ou = _run(tables, xu, [a])[0]
            ov = _run(tables, xv, [a])[0]
            if ou != ov:
                return False
            nxt = (tuple(xu), tuple(xv))
            if nxt not in seen:
                if len(seen) >= budget:
                    raise BudgetExceeded("bisimulation pair budget exhausted")
                seen.add(nxt)
                queue.append(nxt)
    return True


DEFAULT_NODE_BUDGET = 10**6


def refine(targets, keys):
    """Coarsest partition of nodes that respects ``keys`` and transitions.

    ``targets[i][a]`` is the successor of node i on letter a.  Nodes start
    in one block per distinct key, and two nodes end in the same block iff
    every input word leads them to nodes with equal keys.  Hopcroft's
    algorithm (1971), O(m n log n) for n nodes and m letters.  Returns the
    block of each node, blocks numbered in the order of their first node.
    """
    n = len(targets)
    if n == 0:
        return []
    m = len(targets[0])
    preimages = [[[] for _ in range(n)] for _ in range(m)]
    for i, row in enumerate(targets):
        for a in range(m):
            preimages[a][row[a]].append(i)
    first = {}
    block_of = [first.setdefault(key, len(first)) for key in keys]
    blocks = [set() for _ in range(len(first))]
    for i, b in enumerate(block_of):
        blocks[b].add(i)
    # Stability against all blocks but one implies it against the last.
    largest = max(range(len(blocks)), key=lambda b: len(blocks[b]))
    queued = [b != largest for b in range(len(blocks))]
    work = [b for b in range(len(blocks)) if queued[b]]
    while work:
        s = work.pop()
        queued[s] = False
        splitter = list(blocks[s])
        for pre in preimages:
            hit = {}
            for j in splitter:
                for i in pre[j]:
                    hit.setdefault(block_of[i], []).append(i)
            for b, members in hit.items():
                if len(members) == len(blocks[b]):
                    continue
                moved = set(members)
                blocks[b] -= moved
                new = len(blocks)
                blocks.append(moved)
                for i in members:
                    block_of[i] = new
                if queued[b] or len(moved) <= len(blocks[b]):
                    queued.append(True)
                    work.append(new)
                else:
                    queued.append(False)
                    queued[b] = True
                    work.append(b)
    number = {}
    return [number.setdefault(b, len(number)) for b in block_of]


class StateWordTable:
    """Interned signed state words of one machine, with one-letter rows.

    Node 0 is the empty word; every other node is the pair (prefix node,
    rightmost signed state code), so words that share a prefix share nodes.
    The row of a node lists, for every letter a, the output letter and the
    node reached when the word reads a: the rightmost state s outputs
    b = lambda(s, a) and moves to delta(s, a), then the prefix reads b.
    Rows are computed by ``close`` and kept.  ``budget`` caps the number of
    distinct nodes other than the empty word.
    """

    def __init__(self, tables, budget=DEFAULT_NODE_BUDGET):
        self.tables = tables
        self.budget = budget
        m = tables.n_letters
        self.ids = {}
        self.prefix = [0]
        self.last = [None]
        self.outs = [tuple(range(m))]
        self.targets = [(0,) * m]

    def __len__(self):
        return len(self.prefix)

    def node(self, prefix, code):
        """The node of word ``prefix`` followed by state ``code``."""
        key = (prefix, code)
        i = self.ids.get(key)
        if i is None:
            i = len(self.prefix)
            if i > self.budget:
                raise BudgetExceeded(
                    "state word table budget exhausted (%d nodes)" % self.budget
                )
            self.ids[key] = i
            self.prefix.append(prefix)
            self.last.append(code)
        return i

    def word(self, codes, start=0):
        """The node of the word ``start`` followed by the state codes."""
        i = start
        for code in codes:
            i = self.node(i, code)
        return i

    def close(self):
        """Compute the rows of all nodes and of every node they reach.

        A node's prefix always has a smaller number, so rows are filled in
        node order and each finds its prefix's row ready.
        """
        delta, lam = self.tables.delta, self.tables.lam
        letters = range(self.tables.n_letters)
        outs, targets, node = self.outs, self.targets, self.node
        i = len(outs)
        while i < len(self.prefix):
            p_outs, p_targets = outs[self.prefix[i]], targets[self.prefix[i]]
            s = self.last[i]
            d, lm = delta[s], lam[s]
            row = tuple(node(p_targets[lm[a]], d[a]) for a in letters)
            outs.append(tuple(p_outs[lm[a]] for a in letters))
            targets.append(row)
            i += 1

    def classes(self):
        """Action-equality class of every node (``close`` must come first)."""
        return refine(self.targets, self.outs)


def minimize(machine):
    """Quotient of the machine by action equality of single states."""
    cls = refine(machine.transitions, machine.outputs)
    reps = {}
    for q, c in enumerate(cls):
        reps.setdefault(c, q)
    reps = [reps[c] for c in range(len(reps))]
    trans = [tuple(cls[t] for t in machine.transitions[q]) for q in reps]
    outs = [machine.outputs[q] for q in reps]
    return MealyMachine.from_tables(
        tuple(machine.states[q] for q in reps), machine.alphabet, trans, outs
    )


def action_signature(machine, states, budget=DEFAULT_NODE_BUDGET):
    """Canonical fingerprint of the action of a state word.

    Builds the state-word table of the word and everything it reaches,
    refines it by action equality and serializes the quotient breadth-first
    from the word's class; two state words act identically on all input
    words iff their signatures are equal.  ``budget`` caps the table's nodes.
    """
    tables = SignedTables(machine)
    table = StateWordTable(tables, budget)
    start = table.word(tables.codes(states))
    table.close()
    cls = table.classes()
    order = {cls[start]: 0}
    queue = deque([start])
    serial = []
    while queue:
        i = queue.popleft()
        row = []
        for b, t in zip(table.outs[i], table.targets[i]):
            if cls[t] not in order:
                order[cls[t]] = len(order)
                queue.append(t)
            row.append((b, order[cls[t]]))
        serial.append(tuple(row))
    return tuple(serial)


def all_words(alphabet, length):
    """All words of the given length, in lexicographic order."""
    return itertools.product(tuple(alphabet), repeat=length)


def machine_isomorphic(m1, m2):
    """Equality of machines up to renaming states (alphabets must match).

    Backtracks over matchings of states; a state may only map to a state of
    the same action-equality class in the disjoint union of the machines.
    """
    if tuple(m1.alphabet) != tuple(m2.alphabet):
        return False
    if len(m1.states) != len(m2.states):
        return False
    n = len(m1.states)
    m = len(m1.alphabet)
    shifted = tuple(tuple(t + n for t in row) for row in m2.transitions)
    cls = refine(m1.transitions + shifted, m1.outputs + m2.outputs)
    if sorted(cls[:n]) != sorted(cls[n:]):
        return False
    candidates = [[c for c in range(n) if cls[n + c] == cls[q]] for q in range(n)]

    def consistent(mapping):
        for p, img in mapping.items():
            for a in range(m):
                t = m1.transitions[p][a]
                if t in mapping and mapping[t] != m2.transitions[img][a]:
                    return False
        return True

    def extend(mapping, q):
        if q == n:
            return True
        for cand in candidates[q]:
            if cand in mapping.values():
                continue
            mapping[q] = cand
            if consistent(mapping) and extend(mapping, q + 1):
                return True
            del mapping[q]
        return False

    return extend({}, 0)
