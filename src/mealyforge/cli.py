"""Command-line interface.

Exit codes: 0 success (and "yes" verdicts), 1 "no" verdicts, 3 budget
exceeded (partial JSON on stdout), 64 usage or parse errors.  Code 2 is
reserved; no subcommand returns it.  The MEALYFORGE_BUDGET environment
variable overrides default state/vertex budgets; an explicit --budget flag
beats both.  Budgets below 1 are usage errors.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import boundary, cayley, constructions, fileio, levels, machines
from .errors import BudgetExceeded, MealyError, ParseError

EX_USAGE = 64
EX_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("%s: error: %s\n" % (self.prog, message))
        sys.exit(EX_USAGE)


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % (text,)) from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def resolve_budget(explicit):
    """The --budget value, else MEALYFORGE_BUDGET, else None (the defaults)."""
    if explicit is not None:
        return explicit
    env = os.environ.get("MEALYFORGE_BUDGET")
    if not env:
        return None
    try:
        return _positive_int(env)
    except argparse.ArgumentTypeError:
        raise ParseError(
            "MEALYFORGE_BUDGET must be an integer of at least 1, got %r" % (env,)
        ) from None


def _budget(args, default):
    return default if args.budget is None else args.budget


def _emit(args, text):
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_report(args, payload, human):
    if args.json:
        _emit(args, fileio.dump_json(payload))
    else:
        _emit(args, human if human.endswith("\n") else human + "\n")


def _load_machine(path):
    try:
        return fileio.load_machine(path)
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc))


def _load_group(path):
    try:
        return fileio.load_group(path)
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc))


def _parse_state_word(text):
    return tuple(text.split(",")) if "," in text else tuple(text.split())


# --------------------------------------------------------------------------
# Handlers


def cmd_props(args):
    m = _load_machine(args.machine)
    d = constructions.dual(m)
    payload = {
        "states": len(m.states),
        "letters": len(m.alphabet),
        "invertible": machines.is_invertible(m),
        "reversible": machines.is_reversible(m),
        "bireversible": machines.is_bireversible(m),
        "minimized_states": len(machines.minimize(m).states),
        "norm": levels.norm(m),
        "dual_norm": levels.norm(d),
        "digest": fileio.machine_digest(m),
    }
    human = "\n".join("%s: %s" % (k, payload[k]) for k in payload)
    _emit_report(args, payload, human)
    return 0


def _machine_out(args, result):
    if getattr(args, "dot", False):
        _emit(args, fileio.machine_to_dot(result))
    elif args.json:
        _emit(args, fileio.dump_json(fileio.machine_to_dict(result)))
    else:
        _emit(args, fileio.format_machine(result))
    return 0


def cmd_dual(args):
    return _machine_out(args, constructions.dual(_load_machine(args.machine)))


def cmd_inverse(args):
    return _machine_out(args, constructions.inverse_machine(_load_machine(args.machine)))


def cmd_enrich(args):
    return _machine_out(args, constructions.enrich(_load_machine(args.machine)).machine)


def cmd_product(args):
    m1 = _load_machine(args.left)
    m2 = _load_machine(args.right)
    return _machine_out(args, constructions.product(m1, m2))


def cmd_power(args):
    m = _load_machine(args.machine)
    base = None
    if args.base:
        base = _parse_state_word(args.base)
    result = constructions.power(m, args.k, base=base, budget=args.budget)
    return _machine_out(args, result.machine)


def cmd_components(args):
    m = _load_machine(args.machine)
    budget = _budget(args, levels.DEFAULT_VERTEX_BUDGET)
    if args.base:
        comp = levels.level_component(m, m.word(args.base), budget=budget)
        payload = {"base": comp.base, "size": comp.size, "vertices": list(comp.vertices)}
        human = "component of %s: %d vertices" % (comp.base, comp.size)
    else:
        sizes = sorted(levels.component_sizes(m, args.k, budget=budget), reverse=True)
        payload = {
            "level": args.k,
            "count": len(sizes),
            "sizes": sizes,
            "smallest": min(sizes),
        }
        human = "level %d: %d components, sizes %s" % (args.k, len(sizes), sizes)
    _emit_report(args, payload, human)
    return 0


def cmd_schreier(args):
    m = _load_machine(args.machine)
    word = m.word(args.word)
    comp = levels.level_component(m, word, _budget(args, levels.DEFAULT_VERTEX_BUDGET))
    payload = {"word": args.word, "orbit_size": comp.size}
    lines = ["orbit of %s: %d vertices" % (args.word, comp.size)]
    if args.stabilizer_basis:
        basis_words = levels._stabilizer_generators(comp)
        payload["stabilizer_basis"] = [" ".join(w) for w in basis_words]
        payload["rank"] = len(basis_words)
        lines.append("stabilizer rank: %d" % len(basis_words))
        for w in basis_words:
            lines.append("  " + " ".join(w))
    _emit_report(args, payload, "\n".join(lines))
    return 0


def cmd_level_group(args):
    m = _load_machine(args.machine)
    budget = _budget(args, levels.DEFAULT_ORDER_BUDGET)
    report = levels.level_group(m, args.k, order_budget=budget)
    payload = {"level": args.k, "order": report.order}
    _emit_report(args, payload, "level %d group order: %d" % (args.k, report.order))
    return 0


def cmd_growth(args):
    m = _load_machine(args.machine)
    budget = _budget(args, levels.DEFAULT_VERTEX_BUDGET)
    report = levels.growth_chi(m, args.levels, budget=budget)
    payload = {
        "levels": report.levels,
        "chi": report.chi,
        "component_sizes": report.component_sizes,
        "monotone": report.monotone,
        "strictly_increasing": report.strictly_increasing,
        "stabilization_level": report.stabilization_level,
        "dual_norm": report.dual_norm,
        "bound_satisfied": report.bound_satisfied,
    }
    lines = ["level  chi  components (size x count)"]
    for i in range(report.levels):
        sizes = " ".join("%dx%d" % (s, c) for s, c in report.component_sizes[i])
        lines.append("%5d  %3d  %s" % (i + 1, report.chi[i], sizes))
    lines.append("monotone: %s" % report.monotone)
    _emit_report(args, payload, "\n".join(lines))
    return 0


def cmd_decide_bounded(args):
    m = _load_machine(args.machine)
    budget = _budget(args, levels.DEFAULT_VERTEX_BUDGET)
    verdict = boundary.decide_bounded_schreier(m, args.limit, budget=budget)
    payload = dict(vars(verdict))
    if verdict.kind == "yes":
        human = "yes: components of %s(%s)^n stay at %d vertices" % (
            verdict.prefix,
            verdict.period,
            verdict.component_size,
        )
        code = 0
    else:
        human = "no: every level-%d component exceeds %d (smallest is %d)" % (
            verdict.level,
            args.limit,
            verdict.chi_at_level,
        )
        code = 1
    _emit_report(args, payload, human)
    return code


def cmd_relations(args):
    m = _load_machine(args.machine)
    try:
        words = levels.find_relations(
            m, args.max_len, args.depth,
            budget=_budget(args, machines.DEFAULT_NODE_BUDGET),
        )
    except BudgetExceeded as exc:
        exc.partial["relations"] = [" ".join(w) for w in exc.partial["relations"]]
        raise
    payload = {
        "max_len": args.max_len,
        "depth": args.depth,
        "count": len(words),
        "relations": [" ".join(w) for w in words],
    }
    lines = ["%d relation words up to length %d (depth %d)" % (
        len(words), args.max_len, args.depth)]
    lines += ["  " + " ".join(w) for w in words]
    _emit_report(args, payload, "\n".join(lines))
    return 0


def cmd_free_check(args):
    m = _load_machine(args.machine)
    result = levels.free_semigroup_check(
        m, args.max_len, budget=_budget(args, machines.DEFAULT_NODE_BUDGET)
    )
    if result is None:
        payload = {"free_up_to": args.max_len, "collision": None}
        human = "no collisions: semigroup free up to length %d" % args.max_len
    else:
        w1, w2 = result
        payload = {
            "free_up_to": args.max_len,
            "collision": [" ".join(w1), " ".join(w2)],
        }
        human = "collision: %s = %s" % (" ".join(w1), " ".join(w2))
    _emit_report(args, payload, human)
    return 0


def cmd_torsion(args):
    m = _load_machine(args.machine)
    witnesses = boundary.torsion_search(
        m, args.max_len, args.max_exp,
        budget=_budget(args, machines.DEFAULT_NODE_BUDGET),
    )
    payload = {
        "witnesses": [
            {"word": w.word, "index": w.index, "period": w.period} for w in witnesses
        ]
    }
    lines = ["%d torsion witnesses" % len(witnesses)]
    for w in witnesses:
        lines.append("  %s: index %d period %d" % (" ".join(w.word), w.index, w.period))
    _emit_report(args, payload, "\n".join(lines))
    return 0


def _periodic_entries(entries):
    return [
        {
            "period_word": e.period_word,
            "state_word": " ".join(e.state_word),
            "nontrivial": e.nontrivial,
        }
        for e in entries
    ]


def cmd_scan_periodic(args):
    m = _load_machine(args.machine)
    try:
        entries = boundary.periodic_stabilizer_scan(
            m, args.max_period, args.max_gen_len, depth=args.depth,
            budget=_budget(args, machines.DEFAULT_NODE_BUDGET),
        )
    except BudgetExceeded as exc:
        exc.partial["entries"] = _periodic_entries(exc.partial["entries"])
        raise
    payload = {"entries": _periodic_entries(entries)}
    lines = ["%d fixing state words" % len(entries)]
    for e in entries:
        mark = "nontrivial" if e.nontrivial else "trivial"
        lines.append("  (%s)^inf fixed by %s [%s]" % (
            e.period_word, " ".join(e.state_word), mark))
    _emit_report(args, payload, "\n".join(lines))
    return 0


def cmd_cayley(args):
    group = _load_group(args.group)
    if args.phi:
        mapping = {}
        for pair in args.phi.split(","):
            src, _, dst = pair.partition(":")
            if not dst:
                raise ParseError("phi entries look like x:y, got %r" % (pair,))
            mapping[src.strip()] = dst.strip()
        result = cayley.phi_machine(group, mapping)
    elif args.kind == "usual":
        result = cayley.cayley_machine(group)
    elif args.kind == "palindrome":
        result = cayley.palindrome_machine(group)
    else:
        result = cayley.identity_machine_of(group)
    return _machine_out(args, result)


def _ledger_payload(ledger):
    return {
        "group_order": ledger.group.order,
        "verified_depth": ledger.verified_depth,
        "all_verified": ledger.all_verified,
        "relations": {
            str(k): sorted(" ".join(w) for w in ws) for k, ws in ledger.n_sets.items()
        },
        "feeder_counts": {str(k): len(ws) for k, ws in ledger.v_sets.items()},
    }


def cmd_ledger(args):
    group = _load_group(args.group)
    try:
        ledger = cayley.relation_recursion(
            group, args.k_max, verify_depth=args.depth,
            budget=_budget(args, cayley.DEFAULT_CANDIDATE_BUDGET),
        )
    except BudgetExceeded as exc:
        exc.partial = _ledger_payload(exc.partial)
        raise
    lines = []
    for k in sorted(ledger.n_sets):
        lines.append("length %d: %d relation words" % (k, len(ledger.n_sets[k])))
    lines.append("all verified to depth %s: %s" % (
        ledger.verified_depth, ledger.all_verified))
    _emit_report(args, _ledger_payload(ledger), "\n".join(lines))
    return 0


# --------------------------------------------------------------------------
# Parser assembly


def _add_global_options(parser, top_level):
    # On subparsers the defaults are suppressed so a flag given before the
    # subcommand is not clobbered by the subparser's parse.
    absent = {} if top_level else {"default": argparse.SUPPRESS}
    true_absent = {"default": False} if top_level else {"default": argparse.SUPPRESS}
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output", **true_absent)
    parser.add_argument("-o", "--output", help="write output to a file", **absent)
    parser.add_argument("--budget", type=_positive_int,
                        help="state/vertex budget override (at least 1)", **absent)


@functools.cache
def build_parser():
    """The CLI parser, built on first use and shared by every later call.

    ``main`` parses each argv into a fresh namespace, so nothing carries
    over between calls; building the 17 subparsers costs far more than a
    parse.
    """
    parser = _Parser(prog="mealyforge", description=__doc__)
    _add_global_options(parser, top_level=True)
    parser.set_defaults(output=None, budget=None)
    common = _Parser(add_help=False)
    _add_global_options(common, top_level=False)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("props", cmd_props, help="structural properties of a machine")
    p.add_argument("machine")

    p = add("dual", cmd_dual, help="dual machine")
    p.add_argument("machine")
    p.add_argument("--dot", action="store_true")

    p = add("inverse", cmd_inverse, help="machine of formal inverses")
    p.add_argument("machine")
    p.add_argument("--dot", action="store_true")

    p = add("enrich", cmd_enrich, help="add reversed edges over formal inverse letters")
    p.add_argument("machine")
    p.add_argument("--dot", action="store_true")

    p = add("product", cmd_product, help="product machine (left factor reads input)")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--dot", action="store_true")

    p = add("power", cmd_power, help="k-th power machine")
    p.add_argument("machine")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--base", help="restrict to states reachable from this tuple")
    p.add_argument("--dot", action="store_true")

    p = add("components", cmd_components, help="level graph component census")
    p.add_argument("machine")
    p.add_argument("-k", type=int)
    p.add_argument("--base", help="only the component of this word")

    p = add("schreier", cmd_schreier, help="orbit and stabilizer of a word")
    p.add_argument("machine")
    p.add_argument("--word", required=True)
    p.add_argument("--stabilizer-basis", action="store_true")

    p = add("level-group", cmd_level_group, help="permutation group on one level")
    p.add_argument("machine")
    p.add_argument("-k", type=int, required=True)

    p = add("growth", cmd_growth, help="smallest-component growth per level")
    p.add_argument("machine")
    p.add_argument("-n", "--levels", type=int, required=True)

    p = add("decide-bounded", cmd_decide_bounded,
            help="decide whether some boundary point has bounded components")
    p.add_argument("machine")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--horizon", type=int,
                   help="ignored: the search runs until it decides")

    p = add("relations", cmd_relations, help="short state words acting trivially")
    p.add_argument("machine")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)

    p = add("free-check", cmd_free_check, help="search for positive action collisions")
    p.add_argument("machine")
    p.add_argument("--max-len", type=int, required=True)

    p = add("torsion", cmd_torsion, help="torsion in the dual action of short words")
    p.add_argument("machine")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--max-exp", type=int, required=True)

    p = add("scan-periodic", cmd_scan_periodic,
            help="state words fixing periodic boundary points")
    p.add_argument("machine")
    p.add_argument("--max-period", type=int, required=True)
    p.add_argument("--max-gen-len", type=int, required=True)
    p.add_argument("--depth", type=int, default=4)

    p = add("cayley", cmd_cayley, help="build a Cayley machine from a group file")
    p.add_argument("group")
    p.add_argument("--kind", choices=["usual", "palindrome", "identity"],
                   default="usual")
    p.add_argument("--phi", help="custom letter map, e.g. 'e:e,a:e'")
    p.add_argument("--dot", action="store_true")

    p = add("ledger", cmd_ledger, help="relation recursion for a Cayley machine dual")
    p.add_argument("group")
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--depth", type=int, default=None)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "components" and args.k is None and not args.base:
        parser.error("components needs -k or --base")
    try:
        args.budget = resolve_budget(args.budget)
        return args.func(args)
    except BudgetExceeded as exc:
        payload = {"error": "budget exceeded", "detail": str(exc)}
        if exc.partial is not None:
            payload["partial"] = vars(exc.partial) if hasattr(exc.partial, "__dict__") else exc.partial
        sys.stdout.write(fileio.dump_json(payload))
        return EX_BUDGET
    except ParseError as exc:
        sys.stderr.write("mealyforge: %s\n" % exc)
        return EX_USAGE
    except MealyError as exc:
        sys.stderr.write("mealyforge: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
