"""Command-line front end.

Exit codes: 0 success, 1 mathematical failure (irregular action, invalid
triple, roundtrip mismatch), 2 malformed input.  All JSON output is compact
with sorted keys, one line written by ``json``'s C encoder, so files are
byte-deterministic given the inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .actions import action_from_doc, action_to_doc, check_regularity, quotient
from .bench import FAMILIES, growth_exponents, rows_to_csv, run_bench
from .cog import triple_from_doc, triple_to_doc, validate_triple
from .complexes import barycentric_subdivision, complex_from_doc, complex_to_doc
from .compress import compress, compression_ratio
from .errors import (
    ComplexTooLargeError,
    EquicompressError,
    FormatError,
    GroupTooLargeError,
    RegularityViolationError,
    TripleValidationError,
)
from .families import subdivide_action
from .reconstruct import reconstruct
from .verify import verify_roundtrip

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2


def _write(text, path):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from exc


def _dump(doc, path):
    _write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", path)


def _unique_keys(pairs):
    """A JSON object's dict; a repeated key is refused, not overwritten."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key {json.dumps(key)}")
        doc[key] = value
    return doc


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # ValueError: decode errors, over-long integers
        raise FormatError(f"invalid JSON in {path}: {exc}") from exc


def _load_complex(path):
    return complex_from_doc(_load_json(path))


def _load_action(complex_path, action_path):
    doc = _load_json(action_path)
    if not isinstance(doc, dict):
        raise FormatError("action must be an object")
    if "complex" in doc:
        complex_ = complex_from_doc(doc["complex"], "$.complex")
    elif complex_path:
        complex_ = _load_complex(complex_path)
    else:
        raise FormatError("action file has no inline complex and --complex not given")
    return action_from_doc(doc, complex_)


def _load_triple(path):
    return triple_from_doc(_load_json(path))


def cmd_check_regular(args):
    action = _load_action(args.complex, args.action)
    report = check_regularity(action)
    _dump(report.to_doc(), args.out)
    return EXIT_OK if report.regular else EXIT_MATH


def cmd_subdivide(args):
    try:
        if args.action:
            action = subdivide_action(_load_action(args.complex, args.action), args.times)
            _dump(action_to_doc(action), args.out)
        elif args.complex is None:
            raise FormatError("required unless --action is given", "--complex")
        else:
            complex_ = _load_complex(args.complex)
            # the subdivision of points is the identity
            for _ in range(args.times if complex_.dim > 0 else 0):
                complex_ = barycentric_subdivision(complex_)
            _dump(complex_to_doc(complex_), args.out)
    except (ComplexTooLargeError, GroupTooLargeError) as exc:
        raise FormatError(str(exc), "--times") from exc
    return EXIT_OK


def cmd_quotient(args):
    quotient_complex, orbit_map, _ = quotient(_load_action(args.complex, args.action))
    _dump({"quotient": complex_to_doc(quotient_complex), "p": orbit_map}, args.out)
    return EXIT_OK


def cmd_compress(args):
    action = _load_action(args.complex, args.action)
    triple = compress(action)
    _dump(triple_to_doc(triple), args.out)
    total_index = sum(
        action.group.order // len(s) for s in triple.stabilizers
    )
    print(
        f"simplices {len(action.complex)} -> classes {len(triple.quotient)}, "
        f"sum of stabilizer indices {total_index}, "
        f"ratio {compression_ratio(action, triple):.3f}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_reconstruct(args):
    triple = _load_triple(args.triple)
    try:
        rc = reconstruct(triple)
    except ComplexTooLargeError as exc:
        raise FormatError(str(exc), "$.stabilizers") from exc
    _dump(
        {
            "complex": complex_to_doc(rc.complex),
            "labels": [[y, g] for y, g in rc.labels],
        },
        args.out,
    )
    return EXIT_OK


def cmd_roundtrip(args):
    action = _load_action(args.complex, args.action)
    report = verify_roundtrip(action, reconstruct(compress(action)))
    _dump(report.to_doc(), args.out)
    return EXIT_OK if report.passed else EXIT_MATH


def cmd_validate_triple(args):
    triple = _load_triple(args.triple)
    report = validate_triple(triple)
    _dump(report.to_doc(), args.out)
    return EXIT_OK if report.valid else EXIT_MATH


def cmd_bench(args):
    try:
        rows = run_bench(args.family, args.orders, repeats=args.repeats)
    except (ValueError, GroupTooLargeError) as exc:  # no family member at some order
        raise FormatError(str(exc), "--orders") from exc
    exponents = growth_exponents(rows) if len(args.orders) > 1 else None
    _write(rows_to_csv(rows, exponents), args.out)
    return EXIT_OK


def _order_list(text):
    orders = [_positive_int(v) for v in text.split(",") if v]
    if not orders:
        raise argparse.ArgumentTypeError("needs at least one order")
    if len(set(orders)) != len(orders):
        raise argparse.ArgumentTypeError(f"orders must be distinct, got {text}")
    return orders


def _non_negative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


@cache  # one parser per process
def build_parser():
    parser = argparse.ArgumentParser(
        prog="equicompress",
        description="Compress simplicial complexes with regular finite group actions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        if flags.get("complex"):
            p.add_argument("--complex", help="complex JSON file")
        if flags.get("action"):
            p.add_argument(
                "--action",
                required=flags["action"] == "required",
                help="action JSON file (generators, optional inline complex)",
            )
        if flags.get("triple"):
            p.add_argument("--triple", required=True, help="compressed triple JSON file")
        p.add_argument("--out", help="output file (default: stdout)")
        if flags.get("times"):
            p.add_argument("--times", type=_non_negative_int, default=2)
        p.set_defaults(fn=fn)
        return p

    add("check-regular", cmd_check_regular, complex=True, action="required")
    add("subdivide", cmd_subdivide, complex=True, action="optional", times=True)
    add("quotient", cmd_quotient, complex=True, action="required")
    add("compress", cmd_compress, complex=True, action="required")
    add("reconstruct", cmd_reconstruct, triple=True)
    add("roundtrip", cmd_roundtrip, complex=True, action="required")
    add("validate-triple", cmd_validate_triple, triple=True)

    bench = sub.add_parser("bench")
    bench.add_argument("--family", choices=sorted(FAMILIES), default="cycle")
    bench.add_argument("--orders", type=_order_list, default=[2, 3, 4, 6, 8, 12])
    bench.add_argument("--repeats", type=_positive_int, default=1)
    bench.add_argument("--out")
    bench.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        try:
            return args.fn(args)
        except (RegularityViolationError, TripleValidationError) as exc:
            _dump(exc.report.to_doc(), args.out)
            return EXIT_MATH
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except EquicompressError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
