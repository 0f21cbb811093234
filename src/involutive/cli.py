"""Command-line interface.

Subcommands: characters, analyze, gnf, ideal, sample, census.
Exit codes for ``analyze``: 0 = involutive, 1 = not involutive,
2 = error or inconclusive endovolutivity search (the oracle verdict is
still printed in that case).  Every command reports an error as one
line on stderr and exit code 2, never as a traceback; a closed stdout
ends a command silently with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .document import (
    DocumentError,
    load_document,
    matrix_to_lists,
    save_presentation,
)
from .guillemin import (
    ZeroCovector,
    check_gnf_commutativity,
    dim_w1_generic,
    w1_of_phi,
    w_minus_of_phi,
)
from .involutivity import (
    InvolutivityReport,
    build_b_array,
    cartan_test,
    prolongation_dimension,
)
from .linalg import format_rational, parse_rational
from .moduli import (
    CensusTooLarge,
    enumerate_census,
    export_ideal,
    sample_involutive,
)
from .tableau import CartanCharacters, SymbolPresentation, find_generic_basis


def _usage_error(message: str):
    """Refuse a malformed argument the way argparse does: exit code 2."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _parse_rational_list(text: str, flag: str) -> list[Fraction]:
    try:
        values = [parse_rational(part) for part in text.split(",")
                  if part.strip()]
    except ValueError as exc:
        _usage_error(f"{flag}: {exc}")
    if not values:
        _usage_error(f"{flag}: no values given")
    return values


def _parse_characters(values: list[int]) -> CartanCharacters:
    try:
        chars = CartanCharacters(tuple(values))
        chars.require_staircase()
        return chars
    except ValueError as exc:
        _usage_error(f"characters: {exc}")


def _print_basis(basis, indent="  "):
    print(f"{indent}W change: {matrix_to_lists(basis.w_change)}")
    print(f"{indent}V* change: {matrix_to_lists(basis.v_change)}")


def _certified_line(certified: bool) -> str:
    if certified:
        return "characters certified: yes (dim A^(1) = bound)"
    return ("characters certified: no (dim A^(1) < bound; "
            "characters from the seeded search)")


def report_to_dict(report: InvolutivityReport) -> dict:
    out = {
        "characters": list(report.characters.s),
        "ell": report.characters.ell,
        "dim_A": report.dim_A,
        "dim_A1": report.dim_A1,
        "cartan_bound": report.cartan_bound,
        "characters_certified": report.characters_certified,
        "involutive": report.involutive,
        "endovolutive": report.endovolutive,
        "endovolutive_inconclusive": report.endovolutive_inconclusive,
        "violations": [v.as_dict() for v in report.violations],
        "dim_H1": report.dim_H1,
        "dim_H2": report.dim_H2,
        "variant": report.variant,
        "basis": {
            "w_change": matrix_to_lists(report.basis.w_change),
            "v_change": matrix_to_lists(report.basis.v_change),
        },
    }
    if report.endo_basis is not None:
        out["endovolutive_basis"] = {
            "w_change": matrix_to_lists(report.endo_basis.w_change),
            "v_change": matrix_to_lists(report.endo_basis.v_change),
        }
    return out


def cmd_characters(args) -> int:
    doc = load_document(args.input)
    tab = doc.tableau()
    dim_a1, _ = prolongation_dimension(tab)
    basis, chars = find_generic_basis(tab, args.seed, args.trials, dim_a1)
    print(f"characters: {' '.join(str(x) for x in chars.s)}")
    print(_certified_line(dim_a1 == chars.cartan_bound))
    print(f"dim A = {chars.dim}")
    print(f"dim H^1 = {tab.r * tab.n - chars.dim}")
    print("generic basis used:")
    _print_basis(basis)
    return 0


def cmd_analyze(args) -> int:
    doc = load_document(args.input)
    tab = doc.tableau()
    report = cartan_test(tab, seed=args.seed, trials=args.trials,
                         variant=args.variant)
    if args.json:
        print(json.dumps(report_to_dict(report), indent=2))
    else:
        print(f"characters: {' '.join(str(x) for x in report.characters.s)}"
              f"  (ell = {report.characters.ell})")
        print(_certified_line(report.characters_certified))
        print(f"dim A = {report.dim_A}, dim H^1 = {report.dim_H1}, "
              f"dim H^2 = {report.dim_H2}")
        print(f"dim A^(1) = {report.dim_A1}, bound = {report.cartan_bound}")
        print(f"involutive (oracle): {'yes' if report.involutive else 'no'}")
        if report.endovolutive_inconclusive:
            print("endovolutive: inconclusive")
        else:
            print(f"endovolutive: {'yes' if report.endovolutive else 'no'}")
            print(f"quadratic violations ({args.variant} variant): "
                  f"{len(report.violations)}")
            for v in report.violations:
                print(f"  lambda={v.lam} mu={v.mu} i={v.i} j={v.j} "
                      f"a={v.a} b={v.b} value={format_rational(v.value)}")
        print("generic basis used:")
        _print_basis(report.basis)
        if report.endo_basis is not None:
            print("endovolutive basis used:")
            _print_basis(report.endo_basis)
    if report.endovolutive_inconclusive:
        return 2
    return 0 if report.involutive else 1


def cmd_gnf(args) -> int:
    doc = load_document(args.input)
    tab = doc.tableau()
    report = cartan_test(tab, seed=args.seed, trials=args.trials)
    if report.endovolutive_inconclusive:
        print("endovolutive search inconclusive; normal form unavailable")
        return 2
    # cartan_test makes no presentation when dim A = 0
    chars = report.characters
    barr = build_b_array(report.presentation
                         or SymbolPresentation(tab.r, chars, {}))
    phi = _parse_rational_list(args.phi, "--phi")
    if len(phi) < tab.n:
        phi = phi + [Fraction(0)] * (tab.n - len(phi))
    try:
        wm = w_minus_of_phi(barr, phi)
        w1 = w1_of_phi(barr, phi)
    except ZeroCovector as exc:
        print(f"error: --phi: {exc}", file=sys.stderr)
        return 2
    print(f"characters: {' '.join(str(x) for x in chars.s)}")
    print(_certified_line(report.characters_certified))
    print(f"W^-(phi): dim {wm.dim}, basis "
          f"{[[format_rational(e) for e in v.entries()] for v in wm.basis]}")
    print(f"W^1(phi): dim {w1.dim}, basis "
          f"{[[format_rational(e) for e in v.entries()] for v in w1.basis]}")
    print(f"generic dim W^1 = {dim_w1_generic(barr, seed=args.seed)} "
          f"(s_ell = {chars.s[chars.ell - 1] if chars.ell else 0})")
    ok, witness = check_gnf_commutativity(barr, phi)
    print(f"endomorphism + commutativity on W^1(phi): "
          f"{'pass' if ok else 'FAIL'}")
    if not ok:
        print(f"  witness: {witness}")
    return 0


def cmd_ideal(args) -> int:
    chars = _parse_characters(args.characters)
    gens = export_ideal(chars, variant=args.variant)
    print(f"{len(gens)} generators")
    for g in gens:
        print(g.to_text())
    return 0


def cmd_sample(args) -> int:
    chars = _parse_characters(args.characters)
    if args.count < 0:
        _usage_error(f"--count: must be non-negative, got {args.count}")
    coeff_set = _parse_rational_list(args.set, "--set")
    kept = sample_involutive(chars, seed=args.seed, count=args.count,
                             coefficient_set=coeff_set)
    os.makedirs(args.out, exist_ok=True)
    for idx, pres in enumerate(kept):
        path = os.path.join(args.out, f"involutive_{idx:04d}.json")
        save_presentation(pres, path)
        print(path)
    print(f"kept {len(kept)} of {args.count} samples "
          f"(all oracle-verified involutive)")
    return 0


def cmd_census(args) -> int:
    chars = _parse_characters(args.characters)
    coeff_set = _parse_rational_list(args.set, "--set")
    try:
        rec = enumerate_census(chars, coeff_set, cap=args.cap)
    except CensusTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"characters: {' '.join(str(x) for x in rec.characters.s)} "
          f"(r = {rec.r})")
    print(f"free coefficient slots: {rec.variable_count}")
    print(f"coefficient set: "
          f"{{{', '.join(format_rational(c) for c in rec.coefficient_set)}}}")
    print(f"total assignments: {rec.total_assignments}")
    print(f"involutive: {rec.involutive_count}")
    print("violation-count histogram:")
    for k in sorted(rec.violation_histogram):
        print(f"  {k} violations: {rec.violation_histogram[k]}")
    print(f"note: {rec.note}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument parser whose errors are one line on stderr, exit code 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {' '.join(message.split())}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="involutive",
        description="Exact involutivity analysis of PDE symbol tableaux.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_input=True):
        if with_input:
            p.add_argument("--input", required=True, help="tableau JSON file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trials", type=int, default=32,
                       help="maximum number of seeded random basis "
                            "candidates; the search stops at the first one "
                            "whose characters dim A^(1) certifies "
                            "(default: 32)")

    p = sub.add_parser("characters", help="generic Cartan characters")
    add_common(p)
    p.set_defaults(func=cmd_characters)

    p = sub.add_parser("analyze", help="full involutivity report")
    add_common(p)
    p.add_argument("--variant", choices=("theorem", "proof"),
                   default="theorem")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gnf", help="normal-form subspaces for a covector")
    add_common(p)
    p.add_argument("--phi", required=True,
                   help="comma-separated rationals, e.g. '1,0,0'")
    p.set_defaults(func=cmd_gnf)

    p = sub.add_parser("ideal", help="export quadratic ideal generators")
    p.add_argument("characters", type=int, nargs="+")
    p.add_argument("--variant", choices=("theorem", "proof"),
                   default="theorem")
    p.set_defaults(func=cmd_ideal)

    p = sub.add_parser("sample", help="sample involutive presentations")
    p.add_argument("characters", type=int, nargs="+")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--set", default="-1,0,1")
    p.add_argument("--out", default="samples")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("census", help="exhaustive involutivity census")
    p.add_argument("characters", type=int, nargs="+")
    p.add_argument("--set", default="-1,0,1")
    p.add_argument("--cap", type=int, default=100000)
    p.set_defaults(func=cmd_census)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout was closed: devnull keeps the flush at exit quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except DocumentError as exc:
        message = str(exc)
    except Exception as exc:  # the CLI boundary: one line, never a traceback
        message = f"{type(exc).__name__}: {exc}"
    print(f"error: {' '.join(message.split())}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
