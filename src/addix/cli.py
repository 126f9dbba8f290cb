"""Command-line front end.

Every verb takes a field spec ("p^n" or "p^n/c0,c1,...,cn") and polynomial
expressions in the shared grammar, and emits a JSON record on stdout.  Exit
codes: 0 success, 1 parse error (for verify, also a suite that failed with
no event), 2 precondition error, 3 a structural identity failed (the
counterexample is printed).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys

from .analysis import (TranslatorSpec, construct_prescribed_cycles,
                       cycle_structure, inverse_pp, is_involution,
                       is_linear_translator, is_permutation, round_trips,
                       translator_pp, value_set_bounds, value_set_size)
from .charsum import MultChar, bound_report, char_sum
from .decompose import decompose_with, maximal_decomposition
from .errors import InvariantViolation, ParseError, PreconditionError
from .field import Field, parse_field_spec
from .linearized import LinearizedPoly, Subspace
from .poly import parse_poly, poly_to_str
from .verify import ALL_SUITES, _decomposable_sample, run_suites


class _Arg(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


def _codes_arg(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ParseError(f"expected comma-separated integers, got {text!r}") from None


def _emit(record: dict, fmt: str):
    if fmt == "text":
        for key, value in record.items():
            print(f"{key}: {value}")
    else:
        print(json.dumps(record, sort_keys=True))


def _decomposition_record(dec) -> dict:
    return {
        "index": dec.index,
        "L": poly_to_str(dec.subspace_poly.to_poly()),
        "L_lin_coeffs": list(dec.subspace_poly.codes),
        "f": poly_to_str(dec.outer),
        "M": poly_to_str(dec.linear_part.to_poly()),
        "M_lin_coeffs": list(dec.linear_part.codes),
        "kernel_basis": list(dec.kernel.rows),
    }


def _cmd_index(args):
    field = parse_field_spec(args.field)
    poly = parse_poly(args.poly, field)
    record = _decomposition_record(maximal_decomposition(poly))
    if poly.degree >= field.q:
        record["reduced"] = True
        print(f"note: degree >= q, decomposition stated for the residue mod x^q - x",
              file=sys.stderr)
    _emit(record, args.format)
    return 0


def _cmd_decompose(args):
    field = parse_field_spec(args.field)
    poly = parse_poly(args.poly, field)
    if args.base is not None:
        base = LinearizedPoly.from_codes(field, _codes_arg(args.base))
        result = decompose_with(poly, base)
        record = {"ok": result.ok}
        if result.ok:
            record["f"] = poly_to_str(result.outer)
            record["M"] = poly_to_str(result.linear_part.to_poly())
        else:
            record["remainder"] = poly_to_str(result.remainder)
        _emit(record, args.format)
        return 0
    return _cmd_index(args)


def _cmd_valueset(args):
    field = parse_field_spec(args.field)
    poly = parse_poly(args.poly, field)
    record = {}
    if args.method in ("theorem", "both"):
        size, classes = value_set_size(poly, "theorem")
        record["size_theorem"] = size
        record["classes_theorem"] = classes
    if args.method in ("brute", "both"):
        size, classes = value_set_size(poly, "brute")
        record["size_brute"] = size
        record["classes_brute"] = classes
    record["bounds"] = dataclasses.asdict(value_set_bounds(poly))
    _emit(record, args.format)
    return 0


def _cmd_pp_test(args):
    field = parse_field_spec(args.field)
    poly = parse_poly(args.poly, field)
    record = {}
    for method in ("certificate", "brute"):
        cert = is_permutation(poly, method)
        record[method] = {
            "is_pp": cert.is_pp,
            "gcd_degree": cert.gcd_degree,
            "coset_map_bijective": cert.coset_map_bijective,
            "witness": None if cert.witness is None
            else [cert.witness[0].code, cert.witness[1].code],
        }
    _emit(record, args.format)
    return 0


def _cmd_invert(args):
    field = parse_field_spec(args.field)
    poly = parse_poly(args.poly, field)
    inverse = inverse_pp(poly)
    if not round_trips(inverse, poly):
        raise InvariantViolation(f"inverse round-trip failed for {args.poly!r}")
    _emit({"inverse": poly_to_str(inverse), "roundtrip_checked": True}, args.format)
    return 0


def _cmd_cycles(args):
    field = parse_field_spec(args.field)
    poly = parse_poly(args.poly, field)
    counts = cycle_structure(poly)
    _emit({"cycles": {str(k): v for k, v in sorted(counts.items())}}, args.format)
    return 0


def _cmd_construct_cycles(args):
    field = parse_field_spec(args.field)
    perm = construct_prescribed_cycles(field, args.fixed)
    counts = cycle_structure(perm)
    _emit({"poly": poly_to_str(perm),
           "cycles": {str(k): v for k, v in sorted(counts.items())}}, args.format)
    return 0


def _cmd_involution(args):
    field = parse_field_spec(args.field)
    poly = parse_poly(args.poly, field)
    report = is_involution(poly)
    brute = round_trips(poly, poly)
    if report.is_involution != brute:
        raise InvariantViolation(f"involution certificate disagrees with brute force for {args.poly!r}")
    _emit({**dataclasses.asdict(report), "brute": brute}, args.format)
    return 0


def _cmd_translator(args):
    field = parse_field_spec(args.field)
    g = parse_poly(args.g, field)
    sub = Subspace(field, [field.from_code(c) for c in _codes_arg(args.subspace)])
    translate = LinearizedPoly.from_codes(field, _codes_arg(args.m_lin))
    gamma = field.from_code(args.gamma) if args.gamma is not None else None
    scale = field.from_code(args.b) if args.b is not None else None
    spec = TranslatorSpec(g=g, subspace=sub, translate=translate,
                          kind=args.kind, gamma=gamma, scale=scale,
                          frob_power=args.frob_i)
    record = {"is_translator": is_linear_translator(spec)}
    if args.h is not None and record["is_translator"]:
        is_pp, is_complete = translator_pp(spec, parse_poly(args.h, field))
        record["is_pp"] = is_pp
        record["is_complete"] = is_complete
    _emit(record, args.format)
    return 0


def _cmd_charsum(args):
    field = parse_field_spec(args.field)
    if args.sweep is not None:
        return _charsum_sweep(field, args)
    poly = parse_poly(args.poly, field)
    chi = MultChar(field, args.char)
    if chi.is_trivial():
        total = char_sum(poly, chi)
        _emit({"char": chi.index, "sum": [total.real, total.imag],
               "abs": abs(total), "trivial_character": True}, args.format)
        return 0
    report = bound_report(poly, chi)
    _emit({"char": chi.index,
           "sum": [report.value.real, report.value.imag],
           "abs": report.magnitude,
           "index": report.index,
           "e": report.image_dim,
           "image_dim": report.image_dim,
           "outer_degree": report.outer_degree,
           "additive_bound": report.additive_bound,
           "weil_bound": report.weil_bound,
           "weil_applicable": report.weil_applicable,
           "trivial_bound": report.trivial_bound,
           "nontrivial_regime": report.nontrivial_regime}, args.format)
    return 0


def _charsum_sweep(field: Field, args):
    rng = random.Random(args.seed)
    print("# addix-csv v1: poly_id,char,abs_sum,additive_bound,weil_bound,trivial_bound")
    for pid in range(args.sweep):
        dim = rng.randint(1, max(1, field.n - 1))
        poly, *_ = _decomposable_sample(rng, field, dim, rng.randint(1, 3))
        if poly.degree < 1:
            continue
        dec = maximal_decomposition(poly)
        for j in range(1, field.q - 1):
            report = bound_report(poly, MultChar(field, j), decomposition=dec)
            weil = "" if report.weil_bound is None else f"{report.weil_bound:.6f}"
            print(f"{pid},{j},{report.magnitude:.6f},{report.additive_bound:.6f},"
                  f"{weil},{report.trivial_bound}")
    return 0


def _cmd_verify(args):
    names = list(ALL_SUITES) if args.suite == "all" else args.suite.split(",")
    unknown = [n for n in names if n not in ALL_SUITES]
    if unknown:
        raise ParseError(f"unknown suites: {', '.join(unknown)} "
                         f"(choose from {', '.join(ALL_SUITES)})")
    return run_suites(names, seed=args.seed, max_q=args.max_q)


def _build_parser() -> _Arg:
    parser = _Arg(prog="addix", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(sp, poly=True):
        sp.add_argument("--field", required=True, help="field spec, e.g. 2^3 or 3^2/1,0,1")
        if poly:
            sp.add_argument("--poly", required=True, help="polynomial expression")
        sp.add_argument("--format", choices=("json", "text"), default="json")

    def verb(name, run, help):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(run=run)
        return sp

    common(verb("index", _cmd_index, "additive index and maximal decomposition"))
    sp = verb("decompose", _cmd_decompose, "maximal or base-directed decomposition")
    common(sp)
    sp.add_argument("--base", help="linearized base as comma-separated lin-coeff codes")
    sp = verb("valueset", _cmd_valueset, "value set size, both methods, with bounds")
    common(sp)
    sp.add_argument("--method", choices=("theorem", "brute", "both"), default="both")
    common(verb("pp-test", _cmd_pp_test, "permutation certificate and brute verdict"))
    common(verb("invert", _cmd_invert, "compositional inverse of a permutation"))
    common(verb("cycles", _cmd_cycles, "cycle structure of a permutation"))
    sp = verb("construct-cycles", _cmd_construct_cycles,
              "permutation with prescribed fixed points")
    common(sp, poly=False)
    sp.add_argument("--fixed", type=int, required=True, help="number of fixed points")
    common(verb("involution", _cmd_involution, "involution certificate and brute verdict"))
    sp = verb("translator", _cmd_translator, "linear translator check and induced permutation")
    common(sp, poly=False)
    sp.add_argument("--g", required=True, help="the translator map")
    sp.add_argument("--h", help="adjusting polynomial for the induced permutation")
    sp.add_argument("--subspace", required=True, help="subspace basis codes, comma-separated")
    sp.add_argument("--m-lin", required=True, help="translate map lin-coeff codes")
    sp.add_argument("--kind", choices=("general", "b_linear", "frobenius"), default="general")
    sp.add_argument("--gamma", type=int)
    sp.add_argument("--b", type=int)
    sp.add_argument("--frob-i", type=int, default=0)
    sp = verb("charsum", _cmd_charsum, "character sum with bound report, or a CSV sweep")
    sp.add_argument("--field", required=True)
    sp.add_argument("--poly", help="polynomial (omit with --sweep)")
    sp.add_argument("--char", type=int, default=1, help="character index j")
    sp.add_argument("--sweep", type=int, help="emit CSV for this many sampled polynomials")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--format", choices=("json", "text"), default="json")
    sp = verb("verify", _cmd_verify, "run acceptance suites")
    sp.add_argument("--suite", default="all",
                    help="'all' or comma-separated names: " + ", ".join(ALL_SUITES))
    sp.add_argument("--max-q", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None,
                    help="seed for every suite (default: each suite's own seed)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.verb == "charsum" and args.sweep is None and args.poly is None:
            raise ParseError("charsum needs --poly unless --sweep is given")
        if args.verb == "charsum" and args.sweep is not None and args.sweep < 0:
            raise ParseError(f"--sweep must be >= 0, got {args.sweep}")
        return args.run(args)
    except ParseError as exc:
        print(json.dumps({"error": {"type": "parse", "message": str(exc)}}))
        return 1
    except (PreconditionError, ZeroDivisionError) as exc:
        print(json.dumps({"error": {"type": "precondition", "message": str(exc)}}))
        return 2
    except InvariantViolation as exc:
        print(json.dumps({"error": {"type": "invariant", "message": str(exc)}}))
        return 3


if __name__ == "__main__":
    sys.exit(main())
