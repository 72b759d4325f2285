"""Command-line interface: it parses arguments and prints; the checks of
`verify` and `char-check` are the suites of `qmink.verify`.

Subcommands: normalize, derive, lpow, char-check, verify, solve.
Exit status: 0 success, 1 verification failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import scalars as sc
from . import matrices as mx
from . import derivatives as dv
from . import waves as wv
from . import surface as sf
from . import verify as vf

_GEN_ALIASES = {"x0": "x0", "xm": "xm", "x-": "xm", "xp": "xp", "x+": "xp",
                "x30": "x30"}


_PARSER = None    # built on the first call of main, then reused


def main(argv=None):
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as err:
        # argparse exits with 2 on usage errors already; normalize others
        raise SystemExit(2 if err.code not in (0,) else 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe: as the signal docs advise, point stdout
        # at devnull so that the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except sf.ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except (KeyError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="machine readable output")
    parser = argparse.ArgumentParser(
        prog="qmink", parents=[common],
        description="exact calculus on q-deformed Minkowski space")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", parents=[common],
                       help="normal order an expression")
    p.add_argument("expr")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("derive", parents=[common], help="gradient of an expression")
    p.add_argument("expr")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("lpow", parents=[common], help="closed-form power of an L matrix")
    p.add_argument("gen", choices=sorted(_GEN_ALIASES))
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_lpow)

    p = sub.add_parser("char-check", parents=[common],
                       help="characteristic identity of L_x0 and B_x0")
    p.set_defaults(func=cmd_char_check)

    p = sub.add_parser("verify", parents=[common], help="run verification suites")
    p.add_argument("suite", choices=("structure", "calculus", "waves", "all"))
    p.add_argument("--max-degree", type=int, default=vf.DEFAULT_MAX_DEGREE)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("solve", parents=[common], help="momentum eigenstate series")
    p.add_argument("kind", choices=("massless", "massive"))
    p.add_argument("--param", default=None,
                   help="eigenvalue symbol or rational (default m or k)")
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_solve)
    return parser


def cmd_normalize(args):
    el = sf.parse_element(args.expr)
    print(sf.element_to_json(el) if args.json else sf.element_to_str(el))
    return 0


def cmd_derive(args):
    grad = dv.grad_closed(sf.parse_element(args.expr))
    if args.json:
        print(sf.gradient_to_json(dict(zip(mx.FOURVEC_INDEX,
                                           grad.components))))
        return 0
    for name, comp in zip(mx.FOURVEC_INDEX, grad.components):
        print(f"{name}: {comp!r}")    # canonical text, over delta^n if any
    return 0


def _check_degree(name, n):
    """Reject a power or degree outside 0..MAX_INPUT_DEGREE (exit code 2)."""
    if not 0 <= n <= sf.MAX_INPUT_DEGREE:
        raise ValueError(f"{name} must be between 0 and "
                         f"{sf.MAX_INPUT_DEGREE}, got {n}")


def cmd_lpow(args):
    _check_degree("power", args.n)
    mat = mx.l_pow_closed(_GEN_ALIASES[args.gen], args.n)
    rows = [[sf.element_to_str(x) for x in row] for row in mat.entries]
    if args.json:
        print(json.dumps({"dim": 4, "basis": "fourvec", "entries": rows}))
        return 0
    for name, cells in zip(mx.FOURVEC_INDEX, rows):
        print(f"[{name}] {'; '.join(cells)}")
    return 0


def cmd_char_check(args):
    return _report(vf.characteristic(), args.json)


def cmd_verify(args):
    _check_degree("--max-degree", args.max_degree)
    reports, seconds = vf.run(args.suite, args.max_degree)
    return _report(reports, args.json, seconds=seconds)


def cmd_solve(args):
    if args.degree is not None:
        _check_degree("--degree", args.degree)
    massive = args.kind == "massive"
    param = sc.M if massive else sc.K
    if args.param is not None:
        param = sf.parse_scalar(args.param)
    n = args.degree if args.degree is not None else 10 if massive else 12
    if massive:
        state = wv.massive_rest_state(param, n)
        checks = (wv.verify_massive, wv.verify_klein_gordon)
    else:
        state = wv.massless_state(param, n)
        checks = (wv.verify_massless,)
    reports = [check(state, param) for check in checks] if args.verify else []
    payload = {"kind": args.kind, "truncation": state.truncation}
    if args.json:
        payload["slices"] = [json.loads(sf.element_to_json(sl))
                             for sl in state.slices]
    else:
        for d, sl in enumerate(state.slices):
            print(f"degree {d}: {sf.element_to_str(sl)}")
    return _report(reports, args.json, payload)


def _report(reports, as_json, payload=None, **extra):
    """Print verification reports; returns the exit status.  A suite's
    checks print PASS or FAIL (with what failed) lines, or JSON {"ok",
    "results", **extra}; a solved state's checks print their own lines, or
    go into its JSON payload as a "verification" list."""
    ok = all(r.ok for r in reports)
    records = [{"name": r.name, "ok": r.ok,
                "degrees_checked": r.degrees_checked,
                "first_failure": r.first_failure} for r in reports]
    lines = reports
    if payload is None:
        payload = {"ok": ok, "results": records, **extra}
        lines = [("PASS " if r.ok else "FAIL ") + r.name +
                 ("" if r.residual is None else f": {r.residual!r}")
                 for r in reports]
    elif reports:
        payload["verification"] = records
    if as_json:
        print(json.dumps(payload))
    else:
        for line in lines:
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
