"""Cayley machines of finite groups and the relations of their duals.

For a finite group G the Cayley machine has states and letters G, with the
state g sending the letter x to an output while moving to gx.  Three output
flavours are covered: the product gx itself, the inverse x^-1 (palindrome
flavour), and the identity map (every state acts trivially); a custom
letter map is also supported.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .constructions import dual
from .errors import (
    BudgetExceeded,
    NoIdentity,
    NoInverse,
    NotAssociative,
    OddLength,
    UnknownSymbol,
)
from .levels import (
    LevelAction,
    _reduced_code_words,
    _SectionCheck,
    _signed_tables,
    is_group_relation_up_to,  # noqa: F401  (bench/tracing.py wraps it under this name)
    level_group,
    schreier_stabilizer_generators,
)
from .machines import (
    Alphabet,
    MealyMachine,
    SignedTables,
    _run,
    act_transition,  # noqa: F401  (bench/tracing.py wraps it under this name)
    base_name,
    inverse_name,
    is_inverse_name,
    reduce_word,
)

DEFAULT_TABLE_ORDER = 12
DEFAULT_CANDIDATE_BUDGET = 10**7


@dataclass(frozen=True)
class GroupTable:
    """A finite group as a multiplication table, identity first."""

    elements: tuple
    table: tuple  # table[i][j] = index of elements[i] * elements[j]
    inverses: tuple

    @classmethod
    def from_rows(cls, elements, rows, max_order=DEFAULT_TABLE_ORDER):
        elements = tuple(elements)
        if len(elements) > max_order:
            raise ValueError(
                "table order %d exceeds the validation cap %d"
                % (len(elements), max_order)
            )
        index = {g: i for i, g in enumerate(elements)}
        if len(index) != len(elements):
            raise UnknownSymbol("duplicate element names")
        for g in elements:
            if (
                not g
                or any(c.isspace() for c in g)
                or "#" in g
                or ":" in g
                or is_inverse_name(g)
            ):
                raise UnknownSymbol("bad element name: %r" % (g,))
        n = len(elements)
        table = []
        for i, row in enumerate(rows):
            row = tuple(row)
            if len(row) != n:
                raise UnknownSymbol("row of %r has wrong length" % (elements[i],))
            for g in row:
                if g not in index:
                    raise UnknownSymbol("unknown element %r" % (g,))
            table.append(tuple(index[g] for g in row))
        if len(table) != n:
            raise UnknownSymbol("expected one row per element")
        for j in range(n):
            if table[0][j] != j:
                raise NoIdentity("first element is not a left identity")
            if table[j][0] != j:
                raise NoIdentity("first element is not a right identity")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if table[table[i][j]][k] != table[i][table[j][k]]:
                        raise NotAssociative(
                            "(%s %s) %s != %s (%s %s)"
                            % (
                                elements[i],
                                elements[j],
                                elements[k],
                                elements[i],
                                elements[j],
                                elements[k],
                            )
                        )
        inverses = []
        for i in range(n):
            inv = [j for j in range(n) if table[i][j] == 0 and table[j][i] == 0]
            if not inv:
                raise NoInverse("element %r has no inverse" % (elements[i],))
            inverses.append(inv[0])
        return cls(elements, tuple(table), tuple(inverses))

    @classmethod
    def cyclic(cls, n):
        """The cyclic group of order n with elements e, a, b, ... ('e' is
        reserved for the identity and skipped in the letter run)."""
        if n < 1 or n > 26:
            raise ValueError("cyclic group helper supports orders 1..26")
        letters = [c for c in "abcdfghijklmnopqrstuvwxyz"]
        names = ["e"] + letters[: n - 1]
        rows = [[names[(i + j) % n] for j in range(n)] for i in range(n)]
        return cls.from_rows(names, rows, max_order=max(n, DEFAULT_TABLE_ORDER))

    @classmethod
    def klein(cls):
        """The Klein four-group."""
        names = ["e", "a", "b", "c"]
        rows = [
            ["e", "a", "b", "c"],
            ["a", "e", "c", "b"],
            ["b", "c", "e", "a"],
            ["c", "b", "a", "e"],
        ]
        return cls.from_rows(names, rows)

    @classmethod
    def symmetric3(cls):
        """The symmetric group on three points (smallest nonabelian group)."""
        perms = {
            "e": (0, 1, 2),
            "r": (1, 2, 0),
            "s": (2, 0, 1),
            "t": (0, 2, 1),
            "u": (2, 1, 0),
            "v": (1, 0, 2),
        }
        names = list(perms)

        def compose(p, q):  # apply q first, then p
            return tuple(p[q[i]] for i in range(3))

        lookup = {v: k for k, v in perms.items()}
        rows = [[lookup[compose(perms[g], perms[h])] for h in names] for g in names]
        return cls.from_rows(names, rows)

    @property
    def order(self):
        return len(self.elements)

    def index(self, name):
        try:
            return self.elements.index(name)
        except ValueError:
            raise UnknownSymbol("element %r not in group" % (name,)) from None

    def mult(self, g, h):
        return self.elements[self.table[self.index(g)][self.index(h)]]

    def inverse(self, g):
        return self.elements[self.inverses[self.index(g)]]

    def evaluate(self, signed_word):
        """Product of a signed word, formal inverses taken in the table."""
        codes = [
            self.index(base_name(t)) + self.order if is_inverse_name(t) else self.index(t)
            for t in signed_word
        ]
        return self.elements[_product(self, codes)]


def group_from_table(elements, rows, max_order=DEFAULT_TABLE_ORDER):
    """Validated group table from element names and multiplication rows."""
    return GroupTable.from_rows(elements, rows, max_order)


def cayley_machine(group):
    """States and letters G; state g outputs gx on letter x and moves to gx."""
    n = group.order
    trans = [[group.table[g][x] for x in range(n)] for g in range(n)]
    outs = [[group.table[g][x] for x in range(n)] for g in range(n)]
    return MealyMachine.from_tables(
        group.elements, Alphabet(group.elements), trans, outs
    )


def palindrome_machine(group):
    """Cayley transitions with output x^-1: a bireversible flavour."""
    n = group.order
    trans = [[group.table[g][x] for x in range(n)] for g in range(n)]
    outs = [[group.inverses[x] for x in range(n)] for g in range(n)]
    return MealyMachine.from_tables(
        group.elements, Alphabet(group.elements), trans, outs
    )


def identity_machine_of(group):
    """Cayley transitions with identity output: every state acts trivially."""
    n = group.order
    trans = [[group.table[g][x] for x in range(n)] for g in range(n)]
    outs = [[x for x in range(n)] for g in range(n)]
    return MealyMachine.from_tables(
        group.elements, Alphabet(group.elements), trans, outs
    )


def phi_machine(group, phi):
    """Cayley transitions with letters rewritten by an arbitrary map phi."""
    n = group.order
    images = []
    for x in group.elements:
        if x not in phi:
            raise UnknownSymbol("phi is not defined on %r" % (x,))
        images.append(group.index(phi[x]))
    trans = [[group.table[g][x] for x in range(n)] for g in range(n)]
    outs = [[images[x] for x in range(n)] for g in range(n)]
    return MealyMachine.from_tables(
        group.elements, Alphabet(group.elements), trans, outs
    )


def alternating_map(group, word):
    """Interleave formal inverses: u1 u2 u3 u4 ... becomes
    (u1)(u2^-1)^-1(u3)(u4^-1)^-1..., where ^-1 inside parentheses is the
    group inverse and the outer one is formal."""
    word = tuple(word)
    if len(word) % 2:
        raise OddLength("the alternating map needs an even-length word")
    out = []
    for i, x in enumerate(word):
        if i % 2 == 0:
            out.append(x)
        else:
            out.append(inverse_name(group.inverse(x)))
    return tuple(out)


def _cyclic_shifts(word):
    return {word[i:] + word[:i] for i in range(len(word))}


@dataclass
class RelationLedger:
    """Positive-length relation words of a Cayley machine's dual group,
    derived level by level from the fixed-point recursion."""

    group: GroupTable
    n_sets: dict  # 2k -> frozenset of signed words known to be relations
    v_sets: dict  # 2k -> frozenset of words whose whole G-orbit is in n_sets
    verified_depth: int | None
    all_verified: bool


def relation_recursion(group, k_max, verify_depth=None, budget=DEFAULT_CANDIDATE_BUDGET):
    """Derive relation words of even lengths 2, 4, ..., 2*k_max.

    Seeds with the empty word and alternates two steps: relations of the
    next even length are the cyclic closures of v (y)^-1 (x) where the
    whole word evaluates to the identity read right to left (the
    rightmost state acts first), and the words feeding the next step are
    those whose letter-action orbit lands in the current relation set.

    Words are held as signed state codes of the dual (element i, its
    formal inverse i + |G|) and named only in the ledger; every relation
    checked to ``verify_depth`` shares one memo of section words.
    """
    tables = SignedTables(dual(cayley_machine(group)))
    n, names = group.order, tables.names
    check = _SectionCheck(tables)
    n_sets = {}
    v_sets = {0: frozenset({()})}
    feeders = [()]  # the words of the last v-set, as codes
    all_verified = True
    for k in range(1, k_max + 1):
        new_relations = set()
        for v in feeders:
            # x y^-1 t = e for the value t of v read right to left: x = t^-1 y.
            t_inv = group.inverses[_product(group, reversed(v))]
            for y in range(n):
                new_relations |= _cyclic_shifts(v + (y + n, group.table[t_inv][y]))
        n_sets[2 * k] = _named(names, new_relations)
        if verify_depth is not None:
            for w in new_relations:
                if not check.trivial(w, verify_depth):
                    all_verified = False
        if (2 * n) ** (2 * k) > budget:
            raise BudgetExceeded(
                "relation recursion candidate budget exhausted",
                partial=RelationLedger(
                    group, n_sets, v_sets, verify_depth, all_verified
                ),
            )
        feeders = []
        for u in itertools.product(range(2 * n), repeat=2 * k):
            for g in range(n):
                image = list(u)
                _run(tables, image, (g,))
                if tuple(image) not in new_relations:
                    break
            else:
                feeders.append(u)
        v_sets[2 * k] = _named(names, feeders)
    return RelationLedger(group, n_sets, v_sets, verify_depth, all_verified)


def _named(names, code_words):
    return frozenset(tuple(names[c] for c in w) for w in code_words)


def _product(group, codes):
    """Index of the product of signed codes: element i, or its inverse as i + order."""
    acc = 0
    for c in codes:
        acc = group.table[acc][c if c < group.order else group.inverses[c - group.order]]
    return acc


@dataclass
class PalindromicReport:
    """Counts of identity-evaluating words versus their reversals."""

    order: int
    max_len: int
    per_length: dict  # length -> (count hat=e, count reversed-hat=e, count both)
    palindromic: bool  # the two families coincide at every length
    level_orders: dict  # k -> order of the level group of the palindrome dual
    letter_stabilizer_orders: dict  # letter -> stabilizer order at level 1


def palindromic_diagnostics(group, max_len=4, level_k=3):
    """Compare words evaluating to the identity with their reversals.

    For abelian groups the two families coincide; the level groups of the
    palindrome machine's dual and the letter stabilizers at level one give
    the finite-level picture of the same phenomenon.
    """
    per_length = {}
    palindromic = True
    for length, words in enumerate(_reduced_code_words(group.order, max_len), 1):
        h = set()
        hr = set()
        for w in words:
            if _product(group, w) == 0:
                h.add(w)
            if _product(group, reversed(w)) == 0:
                hr.add(w)
        per_length[length] = (len(h), len(hr), len(h & hr))
        if h != hr:
            palindromic = False
    machine = dual(palindrome_machine(group))
    level_orders = {}
    for k in range(1, level_k + 1):
        level_orders[k] = level_group(machine, k).order
    order1 = level_orders.get(1) or level_group(machine, 1).order
    tables = SignedTables(machine)
    label, sizes = LevelAction(tables, 1, n_codes=tables.n).orbits()
    stabs = {
        letter: order1 // sizes[label[i]] for i, letter in enumerate(machine.alphabet)
    }
    return PalindromicReport(
        order=group.order,
        max_len=max_len,
        per_length=per_length,
        palindromic=palindromic,
        level_orders=level_orders,
        letter_stabilizer_orders=stabs,
    )


@dataclass
class IdentityMachineReport:
    """Level-by-level check that the identity-output Cayley machine's dual
    generates a copy of the group with trivial vertex stabilizers."""

    level_orders: dict
    orders_match: bool
    stabilizers_trivial: bool


def identity_machine_group_check(group, k_max=4, depth=4):
    machine = dual(identity_machine_of(group))
    tables = _signed_tables(machine)
    check = _SectionCheck(tables)
    level_orders = {}
    orders_match = True
    stabilizers_trivial = True
    for k in range(1, k_max + 1):
        level_orders[k] = level_group(machine, k).order
        if level_orders[k] != group.order:
            orders_match = False
        # Stabilizers of one orbit are conjugate, and the words acting
        # trivially to a depth form a normal subgroup: one word per orbit
        # decides the verdict.
        label = LevelAction(tables, k, n_codes=tables.n).orbits()[0]
        seen = 0  # orbits are numbered in order of their first word
        for v, c in zip(itertools.product(tuple(machine.alphabet), repeat=k), label):
            if c < seen:
                continue
            seen += 1
            for w in schreier_stabilizer_generators(machine, v):
                if reduce_word(w) and not check.trivial(tuple(tables.codes(w)), depth):
                    stabilizers_trivial = False
    return IdentityMachineReport(level_orders, orders_match, stabilizers_trivial)
