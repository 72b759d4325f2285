"""Seeded inputs and checked items for the four benchmark workloads.

Generation (``generate``) is plain Python over ``random.Random`` and never
imports qmink, so the same seed yields byte-identical item specs on every
commit; ``digest`` hashes them.  Execution (``run_item``) builds the inputs
with public constructors only (``al.monomial``, ``al.xsq_element``,
``al.x0_element``, ``sf.parse_element``, ``sc.integer``, ``sc.q_power`` and
``cli.main`` argv) and returns True only when every identity of the item
holds exactly.

Each batch is stratified: a fixed schedule of slots sets the cost classes
of the batch (gradient monomials, which generators each ordering word
holds, truncation degrees, matrix powers) and their order, and the seed
fills the slots: coefficients, the order of generators within words,
rationals and polynomials.  Items share
caches, so the order decides which item pays to fill them; keeping it fixed
keeps the per-item times comparable across seeds.  The work per batch is
then nearly equal for every seed, so the spread between seeds measures the
program and the machine rather than the luck of the draw.

An item spec may carry an ``inject`` key.  The generator never writes it;
the benchmark's tests use it to feed a known-wrong comparison through the
same check code, which proves that the gate can fail.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

WORKLOADS = ("gradient", "ordering", "waves", "matrices")

_GENS = ("x0", "xm", "xp", "x3")
_L_GENS = ("x0", "xm", "xp", "x30")


def generate(workload, seed):
    """The seeded batch of item specs for one workload (JSON-able dicts)."""
    return _GENERATORS[workload](random.Random(f"qbench:{workload}:{seed}"))


def digest(items):
    """sha256 of the canonical JSON of a batch: identical inputs, same digest."""
    text = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- generation -----------------------------------------------------------------

def _coeff(rng):
    """Nonzero small integer and q exponent, so no term cancels to zero."""
    return [rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.randint(-2, 2)]


def _basis_terms(degree):
    """Every ordered basis monomial xsq^i x0^j tail of exactly this degree
    (i <= 2; j, k, l <= 3) as [i, j, k, l, tail]; tail 0 is x30^k x-^l and
    tail 1 is x+^l x30^k."""
    out = []
    for i in range(3):
        for j in range(4):
            for k in range(4):
                l = degree - 2 * i - j - k
                if 0 <= l <= 3:
                    out += [[i, j, k, l, tail] for tail in ((0, 1) if l else (0,))]
    return out


def _gen_gradient(rng):
    """Each of the 42 degree-5 basis monomials leads one item, joined by a
    degree-2 and a degree-1 monomial from a fixed deal; the seed draws the
    coefficients.  The oracle words a lead term sees for the first time
    dominate the cost of its item, and the cheap companions keep it that
    way.  Companions drawn by the seed moved the median item by 10% between
    seeds, so the deal is fixed.  Degree 6 is left out because a single
    fresh degree-6 word costs up to a second and would make the work per
    batch depend on the seed."""
    deal = random.Random("qbench:gradient:deal")
    low2, low1 = _basis_terms(2), _basis_terms(1)
    triples = [(term, deal.choice(low2), deal.choice(low1))
               for term in _basis_terms(5)]
    return [{"terms": [t + _coeff(rng) for t in triple]} for triple in triples]


def _word_text(coeff, word):
    c, p = coeff
    return f"({c}*q^({p})) * " + " * ".join(word)


# Word lengths of the triples (f, g, h): total degree 6 to 8, with the PBW
# check on f*g at degree 4 or 5.
_ORDERING_SLOTS = [(2, 2, 2)] * 24 + [(2, 3, 2)] * 24 + [(3, 2, 3)] * 24


def _gen_ordering(rng):
    """The batch uses each of x0, xm, xp, x3 equally often.  A fixed deal
    sets which generators each word holds, and so the cost class of each
    item; the seed orders the generators within each word and draws the
    coefficients."""
    need = sum(map(sum, _ORDERING_SLOTS))
    pool = list(_GENS) * (need // len(_GENS))
    random.Random("qbench:ordering:deal").shuffle(pool)
    items = []
    for lengths in _ORDERING_SLOTS:
        words = []
        for n in lengths:
            word = pool[:n]
            del pool[:n]
            rng.shuffle(word)
            words.append(_word_text(_coeff(rng), word))
        items.append({"words": words})
    return items


def _rational_text(rng):
    while True:
        num, den = rng.randint(1, 5), rng.randint(2, 3)
        if num % den:
            return f"{num}/{den}"


# (kind, truncation degree, parameter class): "sym" is m or k, "rat" a seeded
# rational.  Massive solves dominate; massless ones exercise cli and JSON.
_WAVES_SLOTS = ([("massive", 6, "sym")] * 2 + [("massive", 6, "rat")] * 2
                + [("massive", 7, "rat")]
                + [("massless", 16, "sym")] * 4 + [("massless", 12, "rat")] * 3)


def _gen_waves(rng):
    items = []
    for kind, degree, pclass in _WAVES_SLOTS:
        if pclass == "sym":
            param = "m" if kind == "massive" else "k"
        else:
            param = _rational_text(rng)
        items.append({"kind": kind, "param": param, "degree": degree})
    return items


# Every generator at each of these powers, and f_of_l0 factor degrees.
_LPOW_N = (3, 5, 7)
_F_DEGREES = (3, 3, 2, 2, 2, 2, 2, 2)

IDENTITIES = ("projectors", "char_l0", "char_b0", "yang_baxter",
              "rr_relation", "xx_rel2", "l_from_r", "structure")


def _int_poly(rng, degree):
    return [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(degree + 1)]


def _gen_matrices(rng):
    items = [{"op": "lpow", "gen": g, "n": n} for g in _L_GENS for n in _LPOW_N]
    items += [{"op": "f_of_l0", "f": _int_poly(rng, d), "g": _int_poly(rng, d)}
              for d in _F_DEGREES]
    items += [{"op": "identity", "name": name} for name in IDENTITIES]
    return items


_GENERATORS = {"gradient": _gen_gradient, "ordering": _gen_ordering,
               "waves": _gen_waves, "matrices": _gen_matrices}


# -- execution ------------------------------------------------------------------

def run_item(workload, spec):
    """Build the item's inputs, run it, and return True iff every check holds.

    Exceptions propagate; the caller counts them as failures."""
    return _RUNNERS[workload](spec)


def _element(terms):
    from qmink import algebra as al, scalars as sc
    acc = al.zero()
    for i, j, k, l, tail, c, p in terms:
        head = al.xsq_element() ** i * al.x0_element() ** j
        if tail:
            mono = al.monomial(c=l) * al.monomial(d=k)
        else:
            mono = al.monomial(d=k, e=l)
        acc = acc + (head * mono).scale(sc.integer(c) * sc.q_power(p))
    return acc


def _run_gradient(spec):
    from qmink import derivatives as dv
    el = _element(spec["terms"])
    other = _element(spec["inject"]["against"]) if "inject" in spec else el
    closed = dv.grad_closed(el)
    ok = closed == dv.grad_oracle(other)
    closed.cleared()
    return ok


def _run_ordering(spec):
    from qmink import algebra as al, surface as sf
    f, g, h = (sf.parse_element(w) for w in spec["words"])
    fg = f * g
    left = fg * h
    right = f * (h * g if spec.get("inject") == "swap" else g * h)
    ok = left == right
    ok = ok and al.to_pbw_x(fg) == al.pbw_mul(al.to_pbw_x(f), al.to_pbw_x(g))
    ok = ok and sf.parse_element(sf.element_to_str(left)) == left
    ok = ok and sf.element_from_json(sf.element_to_json(left)) == left
    return ok


def _run_waves(spec):
    from qmink import cli, surface as sf, waves as wv
    if "inject" in spec:
        # rest state built with m = param, checked against m = inject
        state = wv.massive_rest_state(sf.parse_scalar(spec["param"]),
                                      spec["degree"])
        return wv.verify_massive(state, m=sf.parse_scalar(spec["inject"])).ok
    argv = ["solve", spec["kind"], "--param", spec["param"],
            "--degree", str(spec["degree"]), "--verify", "--json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    payload = json.loads(out.getvalue())
    reports = payload["verification"]
    ok = (code == 0 and len(reports) == (2 if spec["kind"] == "massive" else 1)
          and all(r["ok"] for r in reports)
          and len(payload["slices"]) == spec["degree"] + 1)
    if spec["kind"] == "massive":
        for data in payload["slices"]:
            el = sf.element_from_json(json.dumps(data))
            if any(alpha % 2 for _, alpha in wv.central_alpha_expansion(el)):
                ok = False
    return ok


def _poly_product(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _run_matrices(spec):
    from qmink import lorentz as lz, matrices as mx, scalars as sc
    op = spec["op"]
    if op == "lpow":
        gen, n = spec["gen"], spec["n"]
        naive_n = spec.get("inject", n)
        return mx.l_pow_closed(gen, n) == mx.mat_pow_naive(mx.l_matrix(gen),
                                                           naive_n)
    if op == "f_of_l0":
        prod = spec.get("inject") or _poly_product(spec["f"], spec["g"])
        f_of = lambda cs: mx.f_of_l0([sc.integer(c) for c in cs])  # noqa: E731
        return f_of(prod) == f_of(spec["f"]) * f_of(spec["g"])
    name = spec["name"]
    if name == "projectors":
        pp, pm = mx.projectors()
        return (pp + pm == mx.identity(4) and (pp * pm).is_zero()
                and (pm * pp).is_zero() and pp * pp == pp and pm * pm == pm)
    if name == "char_l0":
        return mx.char_check_l0() is True
    if name == "char_b0":
        return mx.char_check_b0() is True
    if name == "yang_baxter":
        return lz.yang_baxter_holds() is True
    if name == "rr_relation":
        return lz.rr_relation_residual().is_zero()
    if name == "xx_rel2":
        return all(res.is_zero() for _, res in lz.xx_rel2_residuals())
    if name == "l_from_r":
        return all(lz.l_matrix_from_rmatrix(nu) == mx.l_matrix(g)
                   for nu, g in enumerate(_GENS))
    if name == "structure":
        return all(ok for _, ok in lz.verify_structure())
    raise KeyError(f"unknown identity {name!r}")


_RUNNERS = {"gradient": _run_gradient, "ordering": _run_ordering,
            "waves": _run_waves, "matrices": _run_matrices}
