"""Inputs and job lists of the three workloads.

A pass is one fixed list of jobs.  Every pass writes its own input files:
the corpus machines and the machines of small groups under fresh state,
letter and element names (the index order is kept, so the work is the
same), plus seeded random machines drawn afresh.  So within one run no job
repeats an earlier job's arguments, and the program sees only files.

Each job is a dict: ``argv`` for a CLI subcommand, or ``op`` for a library
call the CLI does not expose, and ``check`` for the property its output
must have.
"""

from __future__ import annotations

import os
import random

import reference

NAME_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"


def text(t):
    """A machine file for the tables ``t``, in the program's format."""
    lines = ["states: " + " ".join(t.states), "alphabet: " + " ".join(t.letters)]
    for q, s in enumerate(t.states):
        for a, x in enumerate(t.letters):
            lines.append("%s %s -> %s %s" % (
                s, x, t.states[t.delta[q][a]], t.letters[t.lam[q][a]]))
    return "\n".join(lines) + "\n"


# -- groups and their machines ---------------------------------------------


def cyclic(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def klein():
    return [[i ^ j for j in range(4)] for i in range(4)]


def symmetric3():
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[x]] for x in range(3))] for q in perms] for p in perms]


GROUPS = {
    "z2": cyclic(2),
    "z3": cyclic(3),
    "z4": cyclic(4),
    "klein": klein(),
    "s3": symmetric3(),
}


def group_machine(table, kind):
    """Cayley machine of a group: state g on letter x moves to gx and
    outputs gx (usual), x^-1 (palindrome) or x (identity)."""
    n = len(table)
    names = [str(i) for i in range(n)]
    inverse = [next(j for j in range(n) if table[i][j] == 0) for i in range(n)]
    delta = [[table[g][x] for x in range(n)] for g in range(n)]
    out = {
        "cay": delta,
        "pal": [[inverse[x] for x in range(n)] for _ in range(n)],
        "id": [[x for x in range(n)] for _ in range(n)],
    }[kind]
    return reference.Tables(names, names, delta, out)


def random_invertible(rng, n, m):
    delta = [[rng.randrange(n) for _ in range(m)] for _ in range(n)]
    lam = [rng.sample(range(m), m) for _ in range(n)]
    return reference.Tables(range(n), range(m), delta, lam)


def random_bireversible(rng, n, m):
    """Rejection sampling over invertible reversible machines."""
    while True:
        cols = [rng.sample(range(n), n) for _ in range(m)]
        delta = [[cols[a][q] for a in range(m)] for q in range(n)]
        lam = [rng.sample(range(m), m) for _ in range(n)]
        t = reference.Tables(range(n), range(m), delta, lam)
        if reference.bireversible(t):
            return t


def corpus(root, name):
    return reference.load_machine(os.path.join(root, "machines", name + ".mealy"))


# -- one pass ----------------------------------------------------------------


class Pass:
    """Collects the input files and jobs of one pass."""

    def __init__(self, root, workload, seed, index, workdir, content):
        self.root = root
        # Machines and words come from ``content``; names from the pass index.
        self.rng = random.Random("%s/%d/%d" % (workload, seed, content))
        self.names_rng = random.Random("names/%s/%d/%d" % (workload, seed, index))
        self.dir = os.path.join(workdir, "p%d" % index)
        os.makedirs(self.dir, exist_ok=True)
        self.index = index
        self.inputs = []
        self.jobs = []

    def _names(self, count, prefix=None):
        """Distinct fresh names: one character each without a prefix."""
        if prefix is None:
            return self.names_rng.sample(NAME_CHARS, count)
        tags = self.names_rng.sample(range(36**3), count)
        return ["%s%s" % (prefix, _base36(t)) for t in tags]

    def machine(self, label, spec):
        """Write ``spec`` under fresh names; returns (path, renamed tables).
        Only the positive rows of the tables are written."""
        renamed = reference.Tables(self._names(spec.n, "q"), self._names(spec.m),
                                   spec.delta[: spec.n], spec.lam[: spec.n])
        path = os.path.join(self.dir, "%s.mealy" % label)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text(renamed))
        self.inputs.append(path)
        return path, renamed

    def group(self, label, table):
        names = self._names(len(table), "g")
        lines = ["elements: " + " ".join(names)]
        for i, row in enumerate(table):
            lines.append("%s: %s" % (names[i], " ".join(names[j] for j in row)))
        path = os.path.join(self.dir, "%s.group" % label)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        self.inputs.append(path)
        return path

    def cli(self, check, *argv):
        self._add({"argv": [str(x) for x in argv], "check": check})

    def lib(self, op, check, **params):
        self._add({"op": op, "params": params, "check": check})

    def _add(self, job):
        job["id"] = "p%d.j%d" % (self.index, len(self.jobs))
        job["out"] = os.path.join(self.dir, "j%d.json" % len(self.jobs))
        self.jobs.append(job)

    def random_word(self, spec, length):
        return "".join(spec.letters[self.rng.randrange(spec.m)] for _ in range(length))

    def random_machines(self):
        """Four seeded random machines: binary and ternary, invertible and
        bireversible, with 3 or 4 states."""
        rng = self.rng
        return [
            ("rinv2", random_invertible(rng, rng.choice((3, 4)), 2)),
            ("rbi2", random_bireversible(rng, rng.choice((3, 4)), 2)),
            ("rinv3", random_invertible(rng, rng.choice((3, 4)), 3)),
            ("rbi3", random_bireversible(rng, rng.choice((3, 4)), 3)),
        ]


def _base36(x):
    out = ""
    for _ in range(3):
        x, r = divmod(x, 36)
        out += NAME_CHARS[r]
    return out


def build(root, workload, seed, index, workdir, content=None):
    """Write the inputs of pass ``index`` and list its jobs.  Passes with the
    same ``content`` (by default the index) run the same machines and words
    under different names, hence the same work."""
    p = Pass(root, workload, seed, index, workdir, index if content is None else content)
    JOB_LISTS[workload](p)
    return p


# -- the workloads -------------------------------------------------------------


def level_census(p):
    """Whole levels: growth, component census, level groups, relations."""
    ms = {}
    for name in ("grigorchuk", "odometer", "identity2"):
        ms[name] = p.machine(name, corpus(p.root, name))
    for g in ("z2", "z3", "z4", "klein", "s3"):
        for kind in ("cay", "pal", "id"):
            spec = group_machine(GROUPS[g], kind)
            label = "%s.%s" % (g, kind)
            ms[label] = p.machine(label, spec)
            ms[label + ".dual"] = p.machine(label + ".dual", reference.dual(spec))
    for label, spec in p.random_machines():
        ms[label] = p.machine(label, spec)

    growth = {
        "grigorchuk": (6, 14), "odometer": (7, 14), "identity2": (12,),
        "z2.cay": (12,), "z2.cay.dual": (11,), "z2.pal.dual": (10,),
        "z3.cay": (8,), "z3.pal": (6,), "z3.pal.dual": (7,),
        "z4.cay": (6,), "klein.cay.dual": (6,), "s3.pal.dual": (4,),
        "rinv2": (11,), "rbi2": (11,), "rinv3": (7,), "rbi3": (7,),
    }
    components = {
        # Seven two-state binary machines at level 12 cost the same: they
        # hold the 90th percentile of job latency steady.
        "grigorchuk": (2, 4, 6, 8, 10, 12), "odometer": (3, 5, 7, 9, 11, 12),
        "identity2": (6,), "z2.cay": (5, 9, 12), "z2.cay.dual": (12,), "z2.pal": (8, 12),
        "z2.pal.dual": (12,), "z2.id": (12,), "z2.id.dual": (12,),
        "z3.cay": (3, 5, 7), "z3.pal.dual": (4, 6), "z4.cay": (2, 4),
        "klein.cay": (2, 4), "klein.pal.dual": (3,), "s3.cay": (2,), "s3.pal.dual": (2, 3),
        "rinv2": (6, 10), "rbi2": (6, 10), "rinv3": (4, 6), "rbi3": (4, 6),
    }
    groups = {
        "grigorchuk": (1, 2, 3, 4), "odometer": (1, 2, 3, 4), "identity2": (2, 4),
        "z2.cay": (1, 2, 3, 4), "z2.cay.dual": (2, 3, 4), "z2.pal.dual": (3, 4),
        "z3.cay": (1, 2), "z3.pal": (1, 2), "z3.pal.dual": (1, 2),
        "z4.pal.dual": (1,), "klein.cay": (1,), "klein.pal.dual": (1,), "s3.pal.dual": (1,),
        "rinv2": (1, 2, 3), "rbi2": (2, 3), "rinv3": (1, 2), "rbi3": (1, 2),
    }
    relations = {
        "grigorchuk": ((2, 9), (3, 8), (4, 6)), "odometer": ((4, 10), (5, 8)),
        "identity2": ((4, 6),), "z2.cay": ((4, 6),), "z2.pal.dual": ((3, 5),),
        "z3.pal": ((2, 4),), "rinv2": ((3, 5),), "rbi2": ((3, 5),),
    }
    for name, levels in growth.items():
        path, spec = ms[name]
        for n in levels:
            p.cli({"kind": "growth", "machine": path, "family": name, "levels": n},
                  "growth", path, "-n", n)
    for name, levels in components.items():
        path, spec = ms[name]
        for k in levels:
            p.cli({"kind": "components", "machine": path, "family": name, "k": k},
                  "components", path, "-k", k)
    for name, levels in groups.items():
        path, spec = ms[name]
        for k in levels:
            p.cli({"kind": "level-group", "machine": path, "family": name, "k": k},
                  "level-group", path, "-k", k)
    for name, pairs in relations.items():
        path, spec = ms[name]
        for max_len, depth in pairs:
            p.cli({"kind": "relations", "machine": path, "max_len": max_len, "depth": depth},
                  "relations", path, "--max-len", max_len, "--depth", depth)


def boundary_scan(p):
    """Marked components one word at a time, out toward the boundary."""
    ms = {}
    for name in ("grigorchuk", "odometer", "identity2"):
        ms[name] = p.machine(name, corpus(p.root, name))
    for g in ("z2", "z3", "klein", "s3"):
        for kind in ("cay", "pal", "id"):
            spec = group_machine(GROUPS[g], kind)
            ms["%s.%s" % (g, kind)] = p.machine("%s.%s" % (g, kind), spec)
        spec = reference.dual(group_machine(GROUPS[g], "pal"))
        ms["%s.pal.dual" % g] = p.machine("%s.pal.dual" % g, spec)
    for label, spec in p.random_machines():
        ms[label] = p.machine(label, spec)

    finiteness = {
        "grigorchuk": 7, "odometer": 8, "identity2": 8, "z2.cay": 6, "z2.pal": 8,
        "z2.pal.dual": 7, "z3.pal": 6, "rinv2": 4, "rbi2": 4, "rbi3": 3,
    }
    bounded = {
        "grigorchuk": (2, 8, 32, 64, 128), "odometer": (4, 16, 32), "identity2": (1,),
        "z2.cay": (4, 16), "z2.pal": (1, 2), "z2.id": (1,), "z2.pal.dual": (2, 3),
        "z3.cay": (3, 9), "z3.pal": (1, 2), "z3.id": (1,), "z3.pal.dual": (3, 4),
        "klein.pal": (1, 2), "klein.id": (1,), "klein.pal.dual": (4,),
        "s3.pal": (2,), "s3.pal.dual": (6, 18),
        "rinv2": (2, 8), "rbi2": (2, 8), "rinv3": (3,), "rbi3": (3,),
    }
    # (machine, word length or a word of letter indices); long words only
    # where components stay small.
    # The Stallings automaton of Grigorchuk's basis at length 7 is the
    # largest allocation of a pass, and its size follows the word (34k-66k
    # letters of basis and 39-55 MB of peak memory on ten random words), so
    # that job takes the word 0^7 and peak memory does not follow the seed.
    schreier = [
        ("grigorchuk", 4), ("grigorchuk", 6), ("grigorchuk", "0000000"), ("odometer", 6),
        ("odometer", 8), ("z2.cay", 6), ("z3.cay", 4), ("identity2", 24), ("z2.pal", 20),
        ("z2.pal.dual", 24), ("z3.pal", 24), ("z3.pal.dual", 20), ("klein.pal.dual", 16),
        ("s3.pal.dual", 12), ("rinv2", 5), ("rbi2", 6), ("rbi3", 3),
    ]
    # Grigorchuk's group is level-transitive, so the component of any word of
    # length 10 is the whole level: these jobs cost the same and hold the
    # 90th percentile of job latency steady.
    base = [("grigorchuk", 10)] * 7 + [
        ("grigorchuk", 8), ("odometer", 10), ("z2.cay", 9),
        ("z3.cay", 5), ("identity2", 30), ("z2.pal", 28), ("z2.id", 26),
        ("z2.pal.dual", 30), ("z3.pal", 25), ("z3.id", 22), ("z3.pal.dual", 26),
        ("klein.pal", 20), ("klein.id", 24), ("klein.pal.dual", 21), ("s3.pal", 20),
        ("s3.id", 23), ("s3.pal.dual", 20), ("rinv2", 7), ("rbi2", 8), ("rinv3", 4),
        ("rbi3", 5),
    ]
    for name, horizon in finiteness.items():
        path, spec = ms[name]
        p.lib("finiteness", {"kind": "finiteness", "machine": path, "horizon": horizon},
              machine=path, horizon=horizon)
    for name, limits in bounded.items():
        path, spec = ms[name]
        for limit in limits:
            p.cli({"kind": "decide-bounded", "machine": path, "limit": limit},
                  "decide-bounded", path, "--limit", limit)
    for name, length in schreier:
        path, spec = ms[name]
        if isinstance(length, str):
            word = "".join(spec.letters[int(a)] for a in length)
        else:
            word = p.random_word(spec, length)
        p.cli({"kind": "schreier", "machine": path, "word": word},
              "schreier", path, "--word", word, "--stabilizer-basis")
        p.lib("stallings", {"kind": "stallings", "machine": path, "word": word},
              machine=path, basis=p.jobs[-1]["out"])
    for name, length in base:
        path, spec = ms[name]
        word = p.random_word(spec, length)
        p.cli({"kind": "components-base", "machine": path, "word": word},
              "components", path, "--base", word)


def dual_semigroup(p):
    """Actions of dual state words: freeness, torsion and relation ledgers."""
    ms = {}
    for name in ("grigorchuk", "odometer", "identity2"):
        ms[name] = p.machine(name, corpus(p.root, name))
    for g in ("z2", "z3", "z4", "klein", "s3"):
        for kind in ("cay", "pal", "id"):
            spec = group_machine(GROUPS[g], kind)
            label = "%s.%s" % (g, kind)
            ms[label] = p.machine(label, spec)
            ms[label + ".dual"] = p.machine(label + ".dual", reference.dual(spec))
    for label, spec in p.random_machines():
        ms[label] = p.machine(label, spec)
        ms[label + ".dual"] = p.machine(label + ".dual", reference.dual(spec))

    free = {
        "z2.cay.dual": (3, 4, 5, 6, 7, 8), "z3.cay.dual": (2, 3, 4, 5),
        "z4.cay.dual": (1, 2, 3), "klein.cay.dual": (1, 2, 3), "s3.cay.dual": (1, 2, 3),
        "z2.cay": (4, 6), "z3.cay": (3,), "klein.cay": (2,),
        "z2.pal.dual": (4, 6), "z3.pal.dual": (3, 4), "z4.pal.dual": (2, 3),
        "klein.pal.dual": (2, 3), "s3.pal.dual": (2, 3),
        "z2.id.dual": (4, 5, 6), "z3.id.dual": (3, 4), "z4.id.dual": (2, 3),
        "klein.id.dual": (2,), "s3.id.dual": (2,),
        "grigorchuk": (2, 3), "odometer": (2, 3, 4), "identity2": (3, 5),
        "rinv2.dual": (2, 3), "rbi2.dual": (2, 3), "rinv3.dual": (2,), "rbi3.dual": (2,),
    }
    torsion = {
        "grigorchuk": ((1, 5), (1, 6), (2, 3), (2, 4)),
        "odometer": ((1, 5), (1, 6), (2, 3), (2, 4)),
        "identity2": ((2, 5), (3, 4)),
        "z2.cay": ((1, 5), (2, 4)), "z3.cay": ((1, 4), (1, 5)), "z4.cay": ((1, 3), (1, 4)),
        "klein.cay": ((1, 4), (1, 5)), "s3.cay": ((1, 2), (1, 3)),
        "z2.pal": ((2, 4), (3, 3)), "z3.pal": ((1, 5), (2, 4)), "z4.pal": ((1, 5),),
        "klein.pal": ((2, 4),), "s3.pal": ((1, 4),),
        "z2.id": ((2, 5),), "z3.id": ((2, 4),), "z4.id": ((1, 5),), "klein.id": ((1, 5),),
        "s3.id": ((1, 4),),
        "rinv2": ((1, 4),), "rbi2": ((1, 4),), "rinv3": ((1, 3),), "rbi3": ((1, 3),),
    }
    ledger = {"z2": (1, 2, 3), "z3": (1, 2), "z4": (1, 2), "klein": (1, 2), "s3": (1,)}
    for name, lengths in free.items():
        path, spec = ms[name]
        for n in lengths:
            p.cli({"kind": "free-check", "machine": path, "max_len": n},
                  "free-check", path, "--max-len", n)
    for name, pairs in torsion.items():
        path, spec = ms[name]
        for max_len, max_exp in pairs:
            p.cli({"kind": "torsion", "machine": path, "max_len": max_len, "max_exp": max_exp},
                  "torsion", path, "--max-len", max_len, "--max-exp", max_exp)
    for g, ks in ledger.items():
        path = p.group(g, GROUPS[g])
        for k in ks:
            depth = 4 if len(GROUPS[g]) <= 3 else 3
            p.cli({"kind": "ledger", "group": path, "k_max": k, "depth": depth},
                  "ledger", path, "--k-max", k, "--depth", depth)
    # Six more `--k-max 2` ledgers of Z4 under fresh names, about 90 ms each
    # like the first: the 90th percentile of job latency falls inside this
    # band of equal jobs, not on a step between unlike ones.
    for i in range(6):
        path = p.group("z4.%d" % i, GROUPS["z4"])
        p.cli({"kind": "ledger", "group": path, "k_max": 2, "depth": 3},
              "ledger", path, "--k-max", 2, "--depth", 3)


JOB_LISTS = {
    "level-census": level_census,
    "boundary-scan": boundary_scan,
    "dual-semigroup": dual_semigroup,
}
WORKLOADS = tuple(JOB_LISTS)
