"""Command-line surface: analyze presentations, decide finite-group
covering properties, search for annihilation witnesses, and run the
theorem-verification harness over the catalog.

Exit codes: 0 success (whatever the verdict), 1 theorem mismatch in
verify-all, 2 parse error, 3 cap or search budget exceeded, 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .catalog import (
    build_catalog,
    default_catalog_spec,
    group_from_spec,
    load_group,
    parse_catalog_spec,
)
from .classify import HINTS, classify_fa, classify_nfa, rho_annihilated_checks
from .config import Caps
from .covering import (
    is_fa_finite,
    is_nfa_finite,
    verify_finite_theorems,
    weight_from_abelianisation,
)
from .errors import (
    CapExceeded,
    EmptyGeneratorList,
    GroupCoverError,
    ParseError,
    PresentationSyntaxError,
    UnknownGenerator,
)
from .presentation import abelian_invariants, parse_presentation, parse_word_text
from .witness import fa_scan, find_annihilator

# an input file that is not UTF-8 is malformed input, not an I/O failure;
# so is nesting deeper than the recursion limit, since only the two
# recursive-descent parsers (presentation._Parser and
# catalog.group_from_spec) recurse as deep as their input nests
_PARSE_ERRORS = (
    PresentationSyntaxError,
    UnknownGenerator,
    EmptyGeneratorList,
    ParseError,
    UnicodeDecodeError,
    RecursionError,
)


def _settle_options(args) -> None:
    """Fill args.format and args.caps from the flags, then the --config
    file, then the defaults; the file takes only what the flags take."""
    conf = {}
    if args.config is not None:
        try:
            conf = json.loads(Path(args.config).read_text())
        except ValueError as exc:
            raise ParseError(f"config file {args.config} is not valid JSON: {exc}") from None
        if not isinstance(conf, dict):
            raise ParseError(f"config file {args.config} must hold a JSON object")
    for key, value in conf.items():
        if not {"format": value in ("text", "json"), "caps": isinstance(value, dict)}.get(key):
            raise ParseError(f"bad config entry {key!r}: {value!r}; use format text|json, caps")
    args.format = args.format or conf.get("format", "text")
    caps = dict(conf.get("caps", {}))
    for token in args.caps or ():
        key, _, raw = token.partition("=")
        try:
            caps[key] = int(raw)
        except ValueError:
            raise ParseError(f"bad --caps token {token!r}; use order=N normal=N") from None
    try:
        args.caps = Caps(**caps)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad caps: {exc}; use order=N normal=N") from None


def _emit(payload: dict, args, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _read_presentation(path):
    return parse_presentation(Path(path).read_text())


# ---------------------------------------------------------------------------
# subcommands

def cmd_analyze(args) -> int:
    pres = _read_presentation(args.presentation)
    verdict = classify_fa(pres, args.hint)
    inv = abelian_invariants(pres)
    rho = rho_annihilated_checks(pres)
    payload = {
        "presentation": pres.render(),
        "hint": args.hint,
        "property": "F-A",
        **verdict.as_dict(),
        "invariants": {"free_rank": inv.free_rank, "factors": list(inv.factors)},
        "perfect": inv.is_trivial,
        "rho": rho.as_dict(),
    }
    if args.nfa is not None:
        nfa = classify_nfa(pres, args.nfa, args.hint)
        payload["nfa"] = {"n": args.nfa, **nfa.as_dict()}
    lines = [
        f"presentation: {pres.render()}",
        f"abelianisation: {inv.describe()} (free_rank={inv.free_rank}, factors={list(inv.factors)})",
        f"F-A verdict: {verdict.status} [{verdict.rule}] easily_fa={verdict.easily_fa}",
        f"perfect: {inv.is_trivial}",
        f"abelian-A: {rho.abelian_annihilated.status}",
        f"free-A (Z allowed): {rho.free_annihilated_including_z.status}",
    ]
    if args.nfa is not None:
        lines.append(f"{args.nfa}-F-A verdict: {payload['nfa']['verdict']}")
    _emit(payload, args, lines)
    return 0


def _resolve_group(args):
    if args.from_format:
        return load_group(args.group, args.from_format, cap=args.caps.order)
    return group_from_spec(args.group, cap=args.caps.order)


def cmd_finite(args) -> int:
    group = _resolve_group(args)
    if args.weight or args.verify:
        group.table  # G^ab and the harness read it, so every route may share it
    reports = []
    lines = [f"group: {group.name} (order {group.order})"]
    fa = is_fa_finite(group, args.caps.normal)
    reports.append(fa.as_dict())
    lines.append(_cover_line(fa))
    if args.nfa is not None:
        nfa = is_nfa_finite(group, args.nfa, args.caps.normal)
        reports.append(nfa.as_dict())
        lines.append(_cover_line(nfa))
    if args.weight:
        w = weight_from_abelianisation(group)
        reports.append({"group": group.name, "weight": w})
        lines.append(f"weight: {w}")
    if args.verify:
        report = verify_finite_theorems(group, cap=args.caps.normal)
        reports.append(report.as_dict())
        status = "pass" if report.passed else f"FAIL ({', '.join(report.failing())})"
        lines.append(f"theorem checks: {status}")
    _emit({"group": group.name, "order": group.order, "reports": reports}, args, lines)
    return 0


def _cover_line(report) -> str:
    if report.verdict:
        size = len(report.subcover or ())
        return (
            f"{report.property_name}: true "
            f"(cover by {len(report.cover)} maximal normal subgroups, greedy subcover {size})"
        )
    return f"{report.property_name}: false (uncovered: {list(report.uncovered)})"


def cmd_witness(args) -> int:
    pres = _read_presentation(args.presentation)
    word = parse_word_text(args.word, pres)
    witness = find_annihilator(pres, word, args.bound)
    if witness is None:
        payload = {"witness": None, "bound": args.bound}
        _emit(payload, args, [f"none <= {args.bound}"])
    else:
        found = witness.as_dict()
        payload = {"witness": found, "bound": args.bound}
        target = found["target"]
        _emit(
            payload,
            args,
            [
                f"target: {target['name']} (order {target['order']})",
                f"images: {found['images']}",
            ],
        )
    return 0


def cmd_scan(args) -> int:
    pres = _read_presentation(args.presentation)
    report = fa_scan(pres, args.max_length, args.bound, hint=args.hint)
    if args.format == "json":
        print(report.as_json())
        return 0
    other = [text for text, kill in zip(report.texts, report.kills) if not kill]
    lines = [
        f"scanned {len(report.texts)} words of length <= {args.max_length} "
        f"against targets of order <= {args.bound}",
        f"witnessed: {len(report.texts) - len(other)}, other: {len(other)}",
    ]
    status = report.status_of(None)
    lines += [f"  {text}: {status}" for text in other]
    print("\n".join(lines))
    return 0


def cmd_verify_all(args) -> int:
    # n-F-A is decided on subsets of size min(n, |G|), and |G| <= the normal cap
    if args.nfa_max > args.caps.normal:
        raise ParseError(f"--nfa-max {args.nfa_max} exceeds the normal cap {args.caps.normal}")
    if args.catalog:
        spec = parse_catalog_spec(Path(args.catalog).read_text())
    else:
        spec = default_catalog_spec()
    groups = build_catalog(spec, cap=args.caps.order, max_order=args.max_order)
    for path in args.include or ():
        fmt = args.from_format or "cayley"
        groups.append(
            load_group(path, fmt, cap=args.caps.order, validate=not args.no_validate)
        )
    nfa_range = tuple(range(1, args.nfa_max + 1))

    reports = [
        verify_finite_theorems(g, nfa_range=nfa_range, cap=args.caps.normal)
        for g in groups
    ]

    mismatches = []
    lines = []
    for report in reports:
        if report.passed:
            lines.append(f"{report.group_name}: ok")
        else:
            failing = ", ".join(report.failing())
            lines.append(f"{report.group_name}: FAIL [{failing}]")
            mismatches.append((report.group_name, failing))
    summary = f"{len(reports)} groups checked, {len(mismatches)} with mismatches"
    lines.append(summary)
    payload = {
        "groups_checked": len(reports),
        "mismatches": [
            {"group": name, "checks": checks} for name, checks in mismatches
        ],
        "reports": [r.as_dict() for r in reports],
    }
    _emit(payload, args, lines)
    if mismatches:
        for name, checks in mismatches:
            print(f"mismatch: {name}: {checks}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(sub):
    sub.add_argument("--format", choices=("text", "json"), default=None)
    sub.add_argument(
        "--caps",
        nargs="*",
        metavar="KEY=N",
        help="override caps, e.g. --caps order=256 normal=64",
    )
    sub.add_argument("--config", help="JSON config file (flags win)")


def _int_at_least(least: int):
    """argparse type: an integer no smaller than `least`."""

    def parse(text) -> int:
        value = int(text)  # argparse reports a ValueError as an invalid value
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    parse.__name__ = "integer"  # argparse names the type in its invalid-value message
    return parse


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process (parse_args keeps no state)."""
    parser = argparse.ArgumentParser(
        prog="groupcover",
        description="Decide, witness and brute-force-verify finite-annihilation properties of groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify a presentation")
    p.add_argument("presentation", help="presentation file")
    p.add_argument("--hint", choices=HINTS, default=None)
    p.add_argument("--nfa", type=_int_at_least(1), default=None, metavar="N")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("finite", help="covering checks on a finite group")
    p.add_argument("group", help="group spec (e.g. 'C 15', 'prod(C 2, C 2)') or file path")
    p.add_argument(
        "--from",
        dest="from_format",
        choices=("permutations", "cayley", "matrix"),
        default=None,
        help="treat the group argument as a file of this format",
    )
    p.add_argument("--nfa", type=_int_at_least(1), default=None, metavar="N")
    p.add_argument("--weight", action="store_true")
    p.add_argument("--verify", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_finite)

    p = sub.add_parser("witness", help="find an annihilation witness for a word")
    p.add_argument("presentation", help="presentation file")
    p.add_argument("word", help="word over the presentation's generators")
    p.add_argument("--bound", type=_int_at_least(0), required=True, metavar="B")
    _add_common(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("scan", help="witness-scan all short words of a presentation")
    p.add_argument("presentation", help="presentation file")
    p.add_argument("--max-length", type=_int_at_least(0), default=3)
    p.add_argument("--bound", type=_int_at_least(0), required=True, metavar="B")
    p.add_argument("--hint", choices=HINTS, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify-all", help="run the theorem harness over the catalog")
    p.add_argument("--max-order", type=_int_at_least(0), default=32)
    p.add_argument("--nfa-max", type=_int_at_least(0), default=3)
    p.add_argument("--catalog", help="catalog spec file (default: built-in catalog)")
    p.add_argument("--include", nargs="*", help="extra group files to check")
    p.add_argument(
        "--from",
        dest="from_format",
        choices=("permutations", "cayley", "matrix"),
        default=None,
    )
    p.add_argument(
        "--no-validate",
        action="store_true",
        help="skip load-time validation of included files (fault injection aid)",
    )
    _add_common(p)
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        _settle_options(args)
        return args.func(args)
    except _PARSE_ERRORS as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except GroupCoverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
