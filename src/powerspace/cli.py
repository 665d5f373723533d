"""Command-line driver.

    powerspace verify --suite homeo --max-points 3
    powerspace build space.json --expr "K(A(X))" --format dot --out out.dot
    powerspace enumerate -n 3 --out spaces.jsonl

Exit codes: 0 all checks pass, 1 a theorem check failed, 2 a resource
cap was hit, 3 bad input or a verify scope with no check in it.  Report
bodies are byte-deterministic for fixed inputs; timing sections are
exempt from that contract.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .config import DEFAULT_LIMITS, Limits
from .core import enumerate_spaces, space_from_json, space_to_json
from .errors import LimitExceeded, ParseError, PowerspaceTooLarge, SpaceError
from .powerspaces import BUILDERS, Powers, construction_to_json, to_dot
from .suites import SUITES, run_suite


def parse_expression(text: str) -> list[str]:
    """Parse `A(e) | K(e) | L(e) | O(e) | X` into constructors, innermost
    last; so "K(A(X))" parses to ["K", "A"]."""
    s = text.replace(" ", "")
    ops: list[str] = []
    while s != "X":
        if len(s) >= 4 and s[0] in BUILDERS and s[1] == "(" and s.endswith(")"):
            ops.append(s[0])
            s = s[2:-1]
        else:
            raise ParseError(f"cannot parse expression {text!r}")
    return ops


def evaluate_expression(space, text: str, limits=DEFAULT_LIMITS):
    """The construction the expression names over space, read off one
    Powers by its word; "X" is the space itself."""
    word = "".join(parse_expression(text))
    return getattr(Powers(space, limits), word) if word else space


def _limits(args) -> Limits:
    """The defaults with what --cap and, for verify, --seed override."""
    limits = DEFAULT_LIMITS if args.cap is None else DEFAULT_LIMITS.with_cap(args.cap)
    seed = getattr(args, "seed", None)
    return limits if seed is None else replace(limits, seed=seed)


def _cmd_verify(args) -> int:
    if args.suite == "all" and args.max_points is not None and args.max_points > 5:
        raise LimitExceeded("the full suite is guarded at 5 points")
    report = run_suite(
        args.suite,
        max_points=args.max_points,
        include_empty=args.include_empty,
        jobs=args.jobs,
        limits=_limits(args),
    )
    if not report.records:
        print("input error: no check in scope", file=sys.stderr)
        return 3
    for line in report.lines():
        print(line)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if report.failed == 0 else 1


def _cmd_build(args) -> int:
    with open(args.space) as fh:
        try:
            space = space_from_json(json.load(fh))
        except (KeyError, ValueError, json.JSONDecodeError) as exc:
            raise ParseError(f"bad space file: {exc}") from exc
    built = evaluate_expression(space, args.expr, _limits(args))
    plain = built is space
    if args.format == "dot":
        payload = to_dot(built)
    else:
        doc = space_to_json(space) if plain else construction_to_json(built)
        payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    print(f"X: {space.n} points" if plain else f"{built.label}: {built.space.n} points")
    _emit(payload, args.out)
    return 0


def _emit(payload: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _cmd_enumerate(args) -> int:
    spaces = enumerate_spaces(args.n)
    if not args.include_empty:
        spaces = [s for s in spaces if s.n > 0]
    _emit("".join(json.dumps(space_to_json(s), sort_keys=True) + "\n" for s in spaces), args.out)
    print(f"count={len(spaces)}", file=sys.stderr)
    return 0


def _int_at_least(low: int):
    """An argparse type for integers of at least low: a smaller count
    would check nothing, a smaller cap or job count would be ignored."""
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="powerspace", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", choices=("all",) + SUITES, default="all")
    p_verify.add_argument("--max-points", type=_int_at_least(0), default=None)
    p_verify.add_argument("--jobs", type=_int_at_least(1), default=1)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--cap", type=_int_at_least(1), default=None)
    p_verify.add_argument("--include-empty", action="store_true")
    p_verify.add_argument("--json", help="also write the report as JSON")
    p_verify.set_defaults(fn=_cmd_verify)

    p_build = sub.add_parser("build", help="evaluate a construction expression over a space file")
    p_build.add_argument("space", help="space JSON file (covers or opens form)")
    p_build.add_argument("--expr", required=True, help='e.g. "K(A(X))"')
    p_build.add_argument("--format", choices=("json", "dot"), default="json")
    p_build.add_argument("--out", default=None)
    p_build.add_argument("--cap", type=_int_at_least(1), default=None)
    p_build.set_defaults(fn=_cmd_build)

    p_enum = sub.add_parser("enumerate", help="write all T0 spaces up to a size as JSON lines")
    p_enum.add_argument("-n", type=_int_at_least(0), required=True)
    p_enum.add_argument("--out", default=None)
    p_enum.add_argument("--include-empty", action="store_true")
    p_enum.set_defaults(fn=_cmd_enumerate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 3 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (PowerspaceTooLarge, LimitExceeded) as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 2
    except (ParseError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except SpaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
