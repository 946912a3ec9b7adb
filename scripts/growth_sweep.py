#!/usr/bin/env python3
"""Sweep orbit growth and finiteness diagnostics over machine files.

For each machine file, prints a per-level table of the growth statistic
chi (smallest component of the level graph), the component size profile,
the dual-norm bound check, and the finiteness semi-decision.
"""

import argparse
import sys

import mealyforge as mf


def describe(path, levels, horizon):
    machine = mf.load_machine(path)
    print("== %s ==" % path)
    print(
        "states %d, letters %d, invertible %s, reversible %s, bireversible %s"
        % (
            len(machine.states),
            len(machine.alphabet),
            mf.is_invertible(machine),
            mf.is_reversible(machine),
            mf.is_bireversible(machine),
        )
    )
    if not mf.is_invertible(machine):
        print("not invertible: no level structure to sweep")
        return
    report = mf.growth_chi(machine, levels)
    print("dual norm %d, bound satisfied %s" % (report.dual_norm, report.bound_satisfied))
    print("level  chi  bound  components (size x count)")
    for i, chi in enumerate(report.chi):
        profile = " ".join(
            "%dx%d" % (size, count) for size, count in report.component_sizes[i]
        )
        print("%5d %4d %6d  %s" % (i + 1, chi, report.dual_norm ** (i + 1), profile))
    certificate = mf.infiniteness_certificate(machine)
    if certificate is not None:
        print(
            "infiniteness certificate: letter %r (%s)"
            % (certificate.output_letter, certificate.reason)
        )
    verdict = mf.finiteness_semidecision(machine, horizon)
    print(
        "finiteness semi-decision: %s, %s (bound %s, level %s, %s)"
        % (
            verdict.kind,
            "proven" if verdict.proven else "not proven",
            verdict.bound,
            verdict.level,
            verdict.evidence,
        )
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("machines", nargs="+", help="machine files to sweep")
    parser.add_argument("--levels", type=int, default=8, help="levels to expand")
    parser.add_argument(
        "--horizon", type=int, default=6, help="semi-decision search horizon"
    )
    args = parser.parse_args(argv)
    for i, path in enumerate(args.machines):
        if i:
            print()
        describe(path, args.levels, args.horizon)
    return 0


if __name__ == "__main__":
    sys.exit(main())
