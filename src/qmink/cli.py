"""Command-line interface.

Subcommands: normalize, derive, lpow, char-check, verify, solve.
Exit status: 0 success, 1 verification failure, 2 usage or parse error.
The default verification degree can be overridden with QMINK_MAX_DEGREE.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import scalars as sc
from . import algebra as al
from . import matrices as mx
from . import derivatives as dv
from . import lorentz as lz
from . import waves as wv
from . import surface as sf

DEFAULT_MAX_DEGREE = 4
_FOURVEC_NAMES = ("0", "-", "+", "3")
_GEN_ALIASES = {"x0": "x0", "xm": "xm", "x-": "xm", "xp": "xp", "x+": "xp",
                "x30": "x30"}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits with 2 on usage errors already; normalize others
        raise SystemExit(2 if err.code not in (0,) else 0)
    try:
        return args.func(args)
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
    p.add_argument("--max-degree", type=int, default=None)
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
    el = sf.parse_element(args.expr)
    grad = dv.grad_closed(el)
    if args.json:
        print(sf.gradient_to_json(
            {name: comp for name, comp in
             zip(_FOURVEC_NAMES, grad.components)}))
        return 0
    for name, comp in zip(_FOURVEC_NAMES, grad.components):
        try:
            text = sf.element_to_str(comp.try_clear())
        except al.DeltaDivisionError:
            text = repr(comp)
        print(f"{name}: {text}")
    return 0


def _check_degree(name, n):
    """Reject a power or degree outside 0..MAX_INPUT_DEGREE (exit code 2)."""
    if not 0 <= n <= sf.MAX_INPUT_DEGREE:
        raise ValueError(f"{name} must be between 0 and "
                         f"{sf.MAX_INPUT_DEGREE}, got {n}")


def cmd_lpow(args):
    _check_degree("power", args.n)
    mat = mx.l_pow_closed(_GEN_ALIASES[args.gen], args.n)
    if args.json:
        rows = [[sf.element_to_str(x.try_clear()) for x in row]
                for row in mat.entries]
        print(json.dumps({"dim": 4, "basis": "fourvec", "entries": rows}))
        return 0
    for i, row in enumerate(mat.entries):
        cells = "; ".join(sf.element_to_str(x.try_clear()) for x in row)
        print(f"[{_FOURVEC_NAMES[i]}] {cells}")
    return 0


def cmd_char_check(args):
    results = [("L_x0 characteristic identity", mx.char_check_l0() is True),
               ("B_x0 characteristic identity", mx.char_check_b0() is True)]
    return _report(results, args.json)


def cmd_verify(args):
    degree = args.max_degree
    if degree is None:
        degree = int(os.environ.get("QMINK_MAX_DEGREE", DEFAULT_MAX_DEGREE))
    _check_degree("--max-degree", degree)
    results = []
    if args.suite in ("structure", "all"):
        results += lz.verify_structure()
    if args.suite in ("calculus", "all"):
        results += verify_calculus(degree)
    if args.suite in ("waves", "all"):
        results += verify_waves()
    return _report(results, args.json)


def cmd_solve(args):
    degree = args.degree
    if degree is not None:
        _check_degree("--degree", degree)
    param = sc.M if args.kind == "massive" else sc.K
    if args.param is not None:
        param = sf.parse_scalar(args.param)
    if args.kind == "massless":
        n = 12 if degree is None else degree
        state = wv.massless_state(param, n)
        reports = [wv.verify_massless(state, k=param)] if args.verify else []
    else:
        n = 10 if degree is None else degree
        state = wv.massive_rest_state(param, n)
        reports = []
        if args.verify:
            reports = [wv.verify_massive(state, m=param),
                       wv.verify_klein_gordon(state, m=param)]
    if args.json:
        payload = {
            "kind": args.kind,
            "truncation": state.truncation,
            "slices": [json.loads(sf.element_to_json(state.slice(d)))
                       for d in range(state.truncation + 1)],
        }
        if args.verify:
            payload["verification"] = [
                {"name": r.name, "ok": r.ok,
                 "degrees_checked": r.degrees_checked,
                 "first_failure": r.first_failure}
                for r in reports]
        print(json.dumps(payload))
    else:
        for d in range(state.truncation + 1):
            print(f"degree {d}: {sf.element_to_str(state.slice(d))}")
        for r in reports:
            print(r)
    return 0 if all(r.ok for r in reports) else 1


# -- verification suites ----------------------------------------------------------

def verify_calculus(max_degree=DEFAULT_MAX_DEGREE, rng=None, n_random=50):
    """Calculus identities up to a degree bound; returns (name, ok) pairs."""
    rng = rng or random.Random(20240601)
    results = []

    ok = all(
        dv.grad_oracle(al.gen_element(g)).cleared() ==
        tuple(al.one() if mu == nu else al.zero() for mu in range(4))
        for nu, g in enumerate(("x0", "xm", "xp", "x3")))
    results.append(("generator derivatives d^mu x_nu = delta^mu_nu", ok))

    results.append(("characteristic identity of L_x0",
                    mx.char_check_l0() is True))
    results.append(("characteristic identity of B_x0",
                    mx.char_check_b0() is True))

    ok = True
    for alpha in ("x0", "xm", "xp", "x30"):
        mat = mx.l_matrix(alpha)
        for n in range(min(max_degree, 4) + 1):
            if mx.l_pow_closed(alpha, n) != mx.mat_pow_naive(mat, n):
                ok = False
    results.append(("closed-form L powers match repeated products", ok))

    pp, pm = mx.projectors()
    eye = mx.identity(4)
    results.append(("projector algebra",
                    (pp + pm) == eye and (pp * pm).is_zero()
                    and (pm * pp).is_zero() and pp * pp == pp
                    and pm * pm == pm))

    coeff = sc.q_power(-1) * sc.two_q()
    got = dv.grad_closed(al.xsq_element()).cleared()
    results.append(("four-length derivative",
                    all(got[mu] == mx.x_upper(mu).scale(coeff)
                        for mu in range(4))))

    ok = True
    for el in _basis_monomials(max_degree):
        if dv.grad_closed(el) != dv.grad_oracle(el):
            ok = False
            break
    results.append((f"closed gradient = oracle (degree <= {max_degree})", ok))

    ok = True
    for _ in range(n_random):
        el = _random_element(rng, max_degree)
        if dv.grad_closed(el) != dv.grad_oracle(el):
            ok = False
            break
    results.append((f"closed gradient = oracle ({n_random} random)", ok))

    ok = True
    for _ in range(max(n_random // 2, 10)):
        f = _random_monomial(rng, max_degree)
        g = _random_monomial(rng, max_degree)
        h = _random_monomial(rng, max_degree)
        if (f * g) * h != f * (g * h):
            ok = False
            break
    results.append(("associativity of normal ordering", ok))
    return results


def verify_waves(n_massless=12, n_massive=10):
    results = []
    psi = wv.massless_state(n_max=n_massless)
    results.append((f"massless state (N={n_massless})",
                    wv.verify_massless(psi).ok))
    phi = wv.massive_rest_state(n_max=n_massive)
    results.append((f"massive rest state (N={n_massive})",
                    wv.verify_massive(phi).ok))
    results.append(("quantum Klein-Gordon equation",
                    wv.verify_klein_gordon(phi).ok))
    ok = True
    for d in range(phi.truncation + 1):
        if any(k[1] % 2 for k in wv.central_alpha_expansion(phi.slice(d))):
            ok = False
    results.append(("square root drops out of the rest state", ok))
    return results


def _basis_monomials(max_degree):
    """Basis monomials of both ordered families up to a degree bound."""
    out = []
    for i in range(max_degree // 2 + 1):
        for j in range(max_degree + 1):
            for kk in range(max_degree + 1):
                for l in range(max_degree + 1):
                    if 2 * i + j + kk + l > max_degree:
                        continue
                    head = al.xsq_element() ** i * al.x0_element() ** j
                    out.append(head * al.monomial(d=kk, e=l))
                    if l:
                        out.append(head * al.monomial(c=l) * al.monomial(d=kk))
    return out


def _random_monomial(rng, max_degree):
    while True:
        a, b = rng.randint(0, 2), rng.randint(0, 2)
        c, d, e = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
        if c and e:
            continue
        if a + b + c + d + e <= max_degree:
            return al.monomial(a, b, c, d, e)


def _random_basis_monomial(rng, max_degree):
    """Random element of the ordered basis B- u B+ (degree bound)."""
    while True:
        i, j = rng.randint(0, 2), rng.randint(0, 2)
        kk, l = rng.randint(0, 2), rng.randint(0, 2)
        if 2 * i + j + kk + l <= max_degree:
            break
    head = al.xsq_element() ** i * al.x0_element() ** j
    if rng.random() < 0.5:
        return head * al.monomial(d=kk, e=l)
    return head * al.monomial(c=l) * al.monomial(d=kk)


def _random_element(rng, max_degree, nterms=3):
    terms = []
    for _ in range(nterms):
        coeff = sc.integer(rng.randint(-4, 4)) * sc.q_power(rng.randint(-2, 2))
        terms.append(_random_basis_monomial(rng, max_degree).scale(coeff))
    return al.add_all(terms)


def _report(results, as_json):
    ok_all = all(ok for _, ok in results)
    if as_json:
        print(json.dumps({"ok": ok_all,
                          "results": [{"name": n, "ok": ok}
                                      for n, ok in results]}))
    else:
        for name, ok in results:
            print(("PASS " if ok else "FAIL ") + name)
    return 0 if ok_all else 1


if __name__ == "__main__":
    sys.exit(main())
