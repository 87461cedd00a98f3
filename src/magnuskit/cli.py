"""Command-line front end.

Exit codes: 0 success (and "equal"/"conjugate" for eq/conj), 1 negative
decision, 2 parse error, 3 beyond-cap, 4 invariant violation.  Sampling
commands require --seed.  The threshold travel_exact_max comes from an
optional JSON --config file, in force for the whole command but
selftest; the only environment variable honoured is NO_COLOR.
"""

import argparse
import json
import os
import sys

from . import acceptance
from .config import DEFAULT, RunConfig, using
from .errors import BeyondCapError, InvariantViolation
from .fox import fox_derivative, projected_derivative
from .groups import GroupHandle, ZrHandle, handle_from_descriptor
from .magnus import geodesic_length, magnus_embed, solvable_group, solvable_conjugacy_test
from .clf import (
    FamilySpec,
    ScanRow,
    central_family_min_conjugator,
    clf_scan,
    distortion_scan,
    rows_to_csv,
    z2_min_conjugator,
)
from .ring import to_json as ring_to_json
from .wreath import ConjugacyResult, conjugacy_test, element_from_json, element_to_json, w_length
from .words import FreeWord, from_json as word_from_json, parse_text, to_json as word_to_json


def _parse_word(text: str, rank: int) -> FreeWord:
    text = text.strip()
    if text.startswith("["):
        return word_from_json(json.loads(text), rank)
    if text in ("e", ""):
        return FreeWord(rank, ())
    return parse_text(text, rank)


def _parse_group(text: str) -> GroupHandle:
    return handle_from_descriptor(json.loads(text))


def _load_config(args) -> RunConfig:
    if not args.config:
        return DEFAULT
    try:
        with open(args.config, "rb") as fh:
            base = json.load(fh)
    except OSError as exc:  # unreadable is a bad argument, not a negative decision
        raise ValueError(f"cannot read config file: {exc}") from exc
    if not isinstance(base, dict):
        raise ValueError("config file must hold a JSON object")
    return RunConfig(**base)


def _emit_rows(rows, fmt):
    if fmt == "json":
        print(json.dumps([row.__dict__ for row in rows], indent=2))
    else:
        print(rows_to_csv(rows), end="")


def cmd_fox(args):
    w = _parse_word(args.word, args.rank)
    if args.quotient:
        Q = _parse_group(args.quotient)
        der = projected_derivative(w, args.i, Q)
    else:
        der = fox_derivative(w, args.i)
    print(json.dumps(ring_to_json(der)))
    return 0


def cmd_embed(args):
    w = _parse_word(args.word, args.r)
    Q = solvable_group(args.r, args.d - 1)
    print(json.dumps(element_to_json(magnus_embed(w, Q))))
    return 0


def _solvable_pair(args):
    G = solvable_group(args.r, args.d)
    u = G.from_word(_parse_word(args.u, args.r))
    v = G.from_word(_parse_word(args.v, args.r))
    return G, u, v


def cmd_eq(args):
    G, u, v = _solvable_pair(args)
    return 0 if G.key(u) == G.key(v) else 1


def cmd_len(args):
    w = _parse_word(args.word, args.r)
    if args.d == 1:
        Z = ZrHandle(args.r)
        print(f"{Z.distance(Z.identity, Z.from_word(w))} exact")
        return 0
    G = solvable_group(args.r, args.d)
    m = geodesic_length(G.from_word(w))
    print(f"{m.value} {'exact' if m.exact else 'upper-bound'}")
    return 0


def _print_decision(res: ConjugacyResult, **extra) -> int:
    """Print a conjugacy decision as JSON; the exit code is 0 or 1."""
    witness = element_to_json(res.witness) if res.witness else None
    print(json.dumps({"conjugate": res.conjugate, "complete": res.complete,
                      "case": res.case, "witness": witness, **extra}))
    return 0 if res.conjugate else 1


def cmd_conj(args):
    G, u, v = _solvable_pair(args)
    if args.d == 1:  # abelian: conjugate iff equal
        return _print_decision(ConjugacyResult(G.key(u) == G.key(v), None, True, "abelian"))
    return _print_decision(solvable_conjugacy_test(u, v))


def cmd_wreath_conj(args):
    A, B = _parse_group(args.lamp), _parse_group(args.base)
    u = element_from_json(json.loads(args.u), A, B)
    v = element_from_json(json.loads(args.v), A, B)
    res = conjugacy_test(u, v)
    if res.witness is None:
        return _print_decision(res)
    m = w_length(res.witness)
    return _print_decision(res, witness_length=m.value, witness_length_exact=m.exact)


def cmd_distortion(args):
    B = _parse_group(args.group)
    rank = len(B.generators())
    x = B.from_word(_parse_word(args.x, rank))
    rows = distortion_scan(B, x, args.n_max, seed=args.seed)
    _emit_rows(rows, args.format)
    return 0


def cmd_family(args):
    if args.n_min > args.n_max:
        raise ValueError(f"n_min {args.n_min} exceeds n_max {args.n_max}")
    B = _parse_group(args.group)
    rank = len(B.generators())
    x = B.from_word(_parse_word(args.x, rank))
    y = B.from_word(_parse_word(args.y, rank))
    spec = FamilySpec(ZrHandle(1), B, x, y, args.kind)
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        if args.kind == "central":
            scan = central_family_min_conjugator(spec, n)
        else:
            scan = z2_min_conjugator(spec, n)
        measured = scan.min_length.value if scan.min_length else -1
        exact = bool(scan.min_length and scan.min_length.exact)
        rows.append(ScanRow(n, measured, scan.bound, exact, measured, args.seed))
    _emit_rows(rows, args.format)
    return 0


def cmd_clf_scan(args):
    A, B = _parse_group(args.lamp), _parse_group(args.base)
    rows = clf_scan(A, B, args.samples, args.n_max, seed=args.seed)
    _emit_rows(rows, args.format)
    return 0


def cmd_selftest(args):
    if args.list:
        for name, _, budget in acceptance.ACCEPTANCE:
            print(f"{name}{'' if budget is None else f'  (budget {budget:.0f}s)'}")
        return 0
    names = set(args.only.split(",")) if args.only else None
    color = os.environ.get("NO_COLOR") is None and sys.stdout.isatty()

    def report(line):
        if color:
            if line.startswith("PASS"):
                line = f"\033[32m{line}\033[0m"
            elif line.startswith(("FAIL", "SLOW")):
                line = f"\033[31m{line}\033[0m"
        print(line)

    ok_all = acceptance.run_all(names, report)
    # extra round-trip smoke beyond the criteria proper
    w = FreeWord(2, (1, 2, -1, -2))
    ok_rt = word_from_json(word_to_json(w), 2) == w
    report(f"{'PASS' if ok_rt else 'FAIL'}  {'json-round-trip':32s} {0.0:7.2f}s  word JSON round-trips")
    ok_all = ok_all and ok_rt
    if not ok_all:
        raise InvariantViolation("selftest failed")
    return 0


def build_parser():
    top = argparse.ArgumentParser(prog="magnuskit", description=__doc__)
    top.add_argument("--config", help="JSON config file")
    top.add_argument("--format", default="csv", choices=("csv", "json"))
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fox", help="(projected) derivative of a word")
    p.add_argument("word")
    p.add_argument("i", type=int)
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--quotient", help="group descriptor JSON for the projection")
    p.set_defaults(fn=cmd_fox)

    p = sub.add_parser("embed", help="image of a word under the Magnus embedding")
    p.add_argument("word")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("eq", help="equality in a free solvable group (exit 0/1)")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(fn=cmd_eq)

    p = sub.add_parser("len", help="exact word length in a free solvable group")
    p.add_argument("word")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(fn=cmd_len)

    p = sub.add_parser("conj", help="conjugacy in a free solvable group")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(fn=cmd_conj)

    p = sub.add_parser("wreath-conj", help="conjugacy in a wreath product A wr B")
    p.add_argument("u", help="wreath element JSON")
    p.add_argument("v", help="wreath element JSON")
    p.add_argument("--lamp", required=True, help="group descriptor JSON")
    p.add_argument("--base", required=True, help="group descriptor JSON")
    p.set_defaults(fn=cmd_wreath_conj)

    p = sub.add_parser("distortion", help="cyclic subgroup distortion scan")
    p.add_argument("--group", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(fn=cmd_distortion)

    p = sub.add_parser("family", help="conjugator-length lower-bound families")
    p.add_argument("--kind", choices=("central", "z2"), required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(fn=cmd_family)

    p = sub.add_parser("clf-scan", help="seeded conjugator-length scan")
    p.add_argument("--lamp", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(fn=cmd_clf_scan)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--only", help="comma-separated check names")
    p.add_argument("--list", action="store_true")
    p.set_defaults(fn=cmd_selftest)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        with using(_load_config(args)):
            return args.fn(args)
    except BeyondCapError as exc:
        print(f"beyond-cap: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
