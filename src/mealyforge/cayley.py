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
    is_group_relation_up_to,
    level_group,
    schreier_stabilizer_generators,
)
from .machines import (
    Alphabet,
    MealyMachine,
    SignedTables,
    act_transition,
    base_name,
    inverse_name,
    is_inverse_name,
    reduce_word,
)

DEFAULT_TABLE_ORDER = 12


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
            if not g or any(c.isspace() for c in g) or "#" in g or ":" in g:
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
        acc = 0
        for token in signed_word:
            if is_inverse_name(token):
                i = self.inverses[self.index(base_name(token))]
            else:
                i = self.index(token)
            acc = self.table[acc][i]
        return self.elements[acc]


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


def relation_recursion(group, k_max, verify_depth=None, budget=10**7):
    """Derive relation words of even lengths 2, 4, ..., 2*k_max.

    Seeds with the empty word and alternates two steps: relations of the
    next even length are the cyclic closures of v (y)^-1 (x) where the
    whole word evaluates to the identity read right to left (the
    rightmost state acts first), and the words feeding the next step are
    those whose letter-action orbit lands in the current relation set.
    """
    dual_machine = dual(cayley_machine(group))
    tables = SignedTables(dual_machine)
    tokens = tuple(group.elements) + tuple(inverse_name(g) for g in group.elements)
    identity = group.elements[0]
    n_sets = {}
    v_sets = {0: frozenset({()})}
    all_verified = True
    for k in range(1, k_max + 1):
        new_relations = set()
        for v in v_sets[2 * (k - 1)]:
            tail_value = group.evaluate(tuple(reversed(v)))
            for x in group.elements:
                for y in group.elements:
                    pair_value = group.mult(x, group.inverse(y))
                    if group.mult(pair_value, tail_value) != identity:
                        continue
                    word = v + (inverse_name(y), x)
                    new_relations |= _cyclic_shifts(word)
        n_sets[2 * k] = frozenset(new_relations)
        if verify_depth is not None:
            for w in new_relations:
                if not is_group_relation_up_to(dual_machine, w, verify_depth):
                    all_verified = False
        if len(tokens) ** (2 * k) > budget:
            raise BudgetExceeded(
                "relation recursion candidate budget exhausted",
                partial=RelationLedger(
                    group, n_sets, v_sets, verify_depth, all_verified
                ),
            )
        keep = set()
        for u in itertools.product(tokens, repeat=2 * k):
            images_ok = True
            for g in group.elements:
                image = act_transition(dual_machine, u, (g,), _tables=tables)
                if image not in n_sets[2 * k]:
                    images_ok = False
                    break
            if images_ok:
                keep.add(u)
        v_sets[2 * k] = frozenset(keep)
    return RelationLedger(group, n_sets, v_sets, verify_depth, all_verified)


@dataclass
class PalindromicReport:
    """Counts of identity-evaluating words versus their reversals."""

    order: int
    max_len: int
    per_length: dict  # length -> (count hat=e, count reversed-hat=e, count both)
    palindromic: bool  # the two families coincide at every length
    level_orders: dict  # k -> order of the level group of the palindrome dual
    letter_stabilizer_orders: dict  # letter -> stabilizer order at level 1


def _reduced_words(tokens, length):
    if length == 0:
        yield ()
        return
    for w in itertools.product(tokens, repeat=length):
        if any(w[i] == inverse_name(w[i + 1]) for i in range(len(w) - 1)):
            continue
        yield w


def palindromic_diagnostics(group, max_len=4, level_k=3):
    """Compare words evaluating to the identity with their reversals.

    For abelian groups the two families coincide; the level groups of the
    palindrome machine's dual and the letter stabilizers at level one give
    the finite-level picture of the same phenomenon.
    """
    tokens = tuple(group.elements) + tuple(inverse_name(g) for g in group.elements)
    identity = group.elements[0]
    per_length = {}
    palindromic = True
    for length in range(1, max_len + 1):
        h = set()
        hr = set()
        for w in _reduced_words(tokens, length):
            if group.evaluate(w) == identity:
                h.add(w)
            if group.evaluate(tuple(reversed(w))) == identity:
                hr.add(w)
        per_length[length] = (len(h), len(hr), len(h & hr))
        if h != hr:
            palindromic = False
    machine = dual(palindrome_machine(group))
    level_orders = {}
    for k in range(1, level_k + 1):
        level_orders[k] = level_group(machine, k).order
    report1 = level_group(machine, 1)
    tables = SignedTables(machine)
    label, sizes = LevelAction(tables, 1, n_codes=tables.n).orbits()
    stabs = {
        letter: report1.order // sizes[label[i]]
        for i, letter in enumerate(report1.words)
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
    level_orders = {}
    orders_match = True
    stabilizers_trivial = True
    for k in range(1, k_max + 1):
        level_orders[k] = level_group(machine, k).order
        if level_orders[k] != group.order:
            orders_match = False
        for v in itertools.product(tuple(machine.alphabet), repeat=k):
            for w in schreier_stabilizer_generators(machine, v):
                if reduce_word(w) and not is_group_relation_up_to(machine, w, depth):
                    stabilizers_trivial = False
    return IdentityMachineReport(level_orders, orders_match, stabilizers_trivial)
