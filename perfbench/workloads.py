"""Request generators, request bodies and answer checks for the four workloads.

A request is a plain tuple built from the run's seed; the program only ever
sees the generated inputs.  ``execute`` is the timed body of one request and
enters through the public functions the matching CLI verb calls.  ``check``
runs outside the timed region and returns an error string, or None when the
answer is right.  ``answer`` turns a result into a JSON-able value that can
be compared exactly across runs.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple

WORKLOADS = ("decompose", "image", "charsum", "acceptance")

Request = namedtuple("Request", "index kind field codes info")

# Bound on q * d^2 for running the brute kernel oracle on a decompose input.
BRUTE_KERNEL_BUDGET = 40_000

# Schedules.  Every workload repeats a fixed cycle of (verb, field, shape)
# slots and a run measures whole cycles only, so every run sees the same mix
# of verbs, field sizes, degrees and subspace dimensions; the seed draws
# only coefficients and subspaces.  Costs differ by orders of magnitude
# between shapes (a linearized input over GF(2^10) makes the charsum sweep
# 10x slower), so drawing shapes at random would make runs unsteady.
#
# Shapes: ("dense", degree); ("structured", dim V, outer degree), i.e.
# outer(S(x)) + M(x) with S vanishing on V and deg M < deg S;
# ("translation", dim V), a permutation C(g(S(x))) + x folded below degree
# q; ("composed", e), the permutation c*(x^(p^j) - a*x + b)^e + d.


def _decompose_cycle():
    """40 slots over GF(2^8), GF(3^5), GF(2^10) and GF(2^12), half dense
    (degree 16..64) and half structured (dim V 1..5, deg S <= 32), plus one
    dense and one structured low-degree input over GF(2^16), which make
    set-up and the O(q) kernel root scan show."""
    slots = []
    for i in range(40):
        if i == 19:
            slots.append(("index", "2^16", ("dense", 8)))
        elif i == 39:
            slots.append(("index", "2^16", ("structured", 2, 3)))
        else:
            spec = ("2^8", "3^5", "2^10", "2^12")[i % 4]
            step = i // 8
            if (i // 4) % 2 == 0:
                slots.append(("index", spec, ("dense", 16 + 12 * step)))
            elif spec == "3^5":
                slots.append(("index", spec, ("structured", 1 + step % 3, 2 + step % 2)))
            else:
                slots.append(("index", spec, ("structured", 1 + step, 3)))
    return tuple(slots)


DECOMPOSE_CYCLE = _decompose_cycle()
# The four image verbs on low-degree inputs.  invert, whose exhaustive round
# trip costs O(q^2), runs only at the two smallest fields.  Four of the ten
# valueset and pp-test inputs are permutations.  The GF(2^12) inputs have
# degree 4, so no slot stands far above the rest and p90 falls among
# several slots rather than on the edge of one slow slot.
IMAGE_CYCLE = (
    ("valueset", "2^8", ("structured", 3, 3)), ("pp-test", "3^5", ("structured", 1, 2)),
    ("cycles", "2^8", ("translation", 4)), ("invert", "2^8", ("translation", 3)),
    ("valueset", "3^5", ("translation", 2)), ("pp-test", "2^10", ("structured", 2, 3)),
    ("cycles", "3^5", ("translation", 2)), ("valueset", "2^10", ("composed", 7)),
    ("pp-test", "2^8", ("translation", 5)), ("cycles", "2^10", ("composed", 5)),
    ("invert", "3^5", ("translation", 3)), ("valueset", "2^12", ("structured", 1, 2)),
    ("pp-test", "2^12", ("composed", 1)), ("cycles", "2^12", ("composed", 1)),
    ("valueset", "2^8", ("structured", 2, 3)), ("pp-test", "3^5", ("structured", 2, 2)),
)
# One structured polynomial per request, outer degree 1..3 as in the CLI
# sweep; at p = 2 outer degrees 1 and 2 give linearized inputs.  Only the
# GF(2^10) slot is far slower than the rest, for the same reason as in
# IMAGE_CYCLE; linearized inputs appear at GF(2^6) and GF(3^5).
CHARSUM_CYCLE = tuple(("charsum", spec, ("structured", dim, outer)) for spec, dim, outer in (
    ("2^6", 1, 3), ("2^8", 2, 3), ("2^6", 2, 2), ("3^5", 1, 2), ("2^6", 3, 3), ("2^6", 4, 1),
    ("3^5", 2, 3), ("2^6", 5, 3), ("2^8", 3, 3), ("2^6", 1, 2), ("3^5", 1, 1), ("2^6", 2, 3),
    ("2^6", 3, 1), ("2^8", 1, 3), ("2^6", 4, 3), ("3^5", 2, 2), ("2^6", 5, 2), ("2^6", 1, 1),
    ("2^8", 4, 3), ("2^6", 2, 3), ("3^5", 3, 3), ("2^6", 3, 2), ("2^6", 4, 3), ("2^10", 2, 3)))
CYCLES = {"decompose": DECOMPOSE_CYCLE, "image": IMAGE_CYCLE, "charsum": CHARSUM_CYCLE}

SUITES = ("kernel-methods", "decomposition-identity", "value-sets",
          "pp-certificates", "inverse-roundtrip", "cycle-theorems",
          "complement-commutation", "character-bounds",
          "involution-translator", "fixed-regressions")
# The acceptance workload runs the suites over the fields with q <= 16, as
# `addix verify --suite all --max-q 16` does: a pass takes about 15 s rather
# than 30-48 s at every field, and per-call overhead at small q, which that
# workload is there to catch, dominates even more.
ACCEPTANCE_MAX_Q = 16
# Criterion 9's documented failure: the complete-mapping claim is refuted
# at odd characteristic.  Any other failure of that suite is a real failure.
REFUTED_SUITE = "involution-translator"
REFUTATION_EVENT = "complete-mapping claim refuted at odd characteristic"


def cycle_length(workload: str) -> int:
    """Requests in one cycle of the workload's schedule."""
    return len(SUITES) if workload == "acceptance" else len(CYCLES[workload])


def fields_of(workload: str) -> tuple[str, ...]:
    """Field specs a workload's requests use, built during set-up."""
    if workload == "acceptance":
        # the suites build their own fields; these are the ones they use
        return ("2^2", "2^3", "3^2", "2^4")
    return tuple(sorted({spec for _, spec, _ in CYCLES[workload]}))


# ---------------------------------------------------------------------------
# Input construction (public API only)


class Inputs:
    """Seeded input builder over the fields of one run."""

    def __init__(self, addix, fields: dict, rng: random.Random):
        self.ax = addix
        self.fields = fields
        self.rng = rng

    def dense(self, spec: str, degree: int) -> list[int]:
        q = self.fields[spec].q
        rng = self.rng
        return [rng.randrange(q) for _ in range(degree)] + [rng.randrange(1, q)]

    def subspace(self, field, dim: int):
        ax, rng = self.ax, self.rng
        sub = ax.Subspace(field, ())
        while sub.dim < dim:
            cand = field.from_code(rng.randrange(1, field.q))
            if not sub.contains(cand):
                sub = ax.Subspace(field, list(sub.basis) + [cand])
        return sub

    def structured(self, spec: str, dim: int, outer_deg: int) -> list[int]:
        """outer(S(x)) + M(x) with S vanishing on a random dim-dimensional
        subspace and deg M < deg S."""
        ax, rng = self.ax, self.rng
        field = self.fields[spec]
        base = ax.vanishing_poly(self.subspace(field, dim))
        outer = ax.Poly.from_codes(field, self.dense(spec, outer_deg))
        linear = ax.LinearizedPoly.from_codes(
            field, [rng.randrange(field.q) for _ in range(rng.randint(1, dim))])
        poly = outer.compose(base.to_poly()) + linear.to_poly()
        return [c.code for c in poly.coeffs]

    def translation_pp(self, spec: str, dim: int) -> list[int]:
        """C(g(S(x))) + x with C the complement of S: a permutation by
        construction, folded below degree q."""
        ax, rng = self.ax, self.rng
        field = self.fields[spec]
        base = ax.vanishing_poly(self.subspace(field, dim))
        g = ax.Poly.from_codes(field, [rng.randrange(field.q) for _ in range(3)])
        outer = ax.complement(base).to_poly().compose(g)
        poly = outer.compose(base.to_poly()) + ax.Poly.x(field)
        poly = ax.reduce_mod_xq_minus_x(poly)
        return [c.code for c in poly.coeffs]

    def composed_pp(self, spec: str, e: int) -> list[int]:
        """c * (x^(p^j) - a*x + b)^e + d: a linearized permutation (a not a
        (p^j - 1)-th power), shifted, raised to a unit exponent e, scaled."""
        ax, rng = self.ax, self.rng
        field = self.fields[spec]
        q, p = field.q, field.p
        if math.gcd(e, q - 1) != 1:
            raise ValueError(f"x^{e} does not permute GF({q})")
        j = 2 if p == 2 else 1
        m = math.gcd(p ** j - 1, q - 1)
        while True:
            a = field.from_code(rng.randrange(2, q))
            if field.dlog(a) % m:
                break
        lin = ax.Poly.monomial(field, field.one, p ** j) - ax.Poly.monomial(field, a, 1)
        inner = lin + ax.Poly.constant(field, field.from_code(rng.randrange(q)))
        poly = inner ** e
        poly = poly * field.from_code(rng.randrange(1, q))
        poly = poly + ax.Poly.constant(field, field.from_code(rng.randrange(q)))
        return [c.code for c in poly.coeffs]

    def build(self, spec: str, shape: tuple) -> list[int]:
        kind, *params = shape
        make = {"dense": self.dense, "structured": self.structured,
                "translation": self.translation_pp, "composed": self.composed_pp}[kind]
        return make(spec, *params)


def requests(addix, fields: dict, workload: str, seed: int):
    """Endless, deterministic request stream for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    build = Inputs(addix, fields, rng)
    i = 0
    while True:
        if workload == "acceptance":
            # in the order `addix verify --suite all` runs them; seed 0 runs
            # each suite at its default seed
            suite_seed = rng.randrange(1, 1 << 30) if seed else None
            yield Request(i, SUITES[i % len(SUITES)], None, None, {"suite_seed": suite_seed})
            i += 1
            continue
        cycle = CYCLES[workload]
        kind, spec, shape = cycle[i % len(cycle)]
        yield Request(i, kind, spec, build.build(spec, shape), {})
        i += 1


# ---------------------------------------------------------------------------
# Request bodies (timed)


def execute(addix, fields: dict, req: Request):
    """Run one request; returns the raw result handed to ``check``."""
    ax = addix
    if req.kind in SUITES:
        suite = ax.verify.ALL_SUITES[req.kind]
        seed = req.info["suite_seed"]
        if seed is None:
            return suite(max_q=ACCEPTANCE_MAX_Q)
        return suite(seed=seed, max_q=ACCEPTANCE_MAX_Q)
    field = fields[req.field]
    poly = ax.Poly.from_codes(field, req.codes)
    if req.kind == "index":
        return ax.maximal_decomposition(poly)
    if req.kind == "valueset":
        return (ax.value_set_size(poly, "theorem"), ax.value_set_size(poly, "brute"),
                ax.value_set_bounds(poly))
    if req.kind == "pp-test":
        return (ax.is_permutation(poly, "certificate"), ax.is_permutation(poly, "brute"))
    if req.kind == "invert":
        inverse = ax.inverse_pp(poly)
        ok = all(inverse.eval(poly.eval(y)) == y for y in field.elements())
        return inverse, ok
    if req.kind == "cycles":
        return ax.cycle_structure(poly)
    if req.kind == "charsum":
        dec = ax.maximal_decomposition(poly)
        values = [dec.poly.eval(a) for a in field.elements()]
        return [ax.bound_report(poly, ax.MultChar(field, j),
                                decomposition=dec, values=values)
                for j in range(1, field.q - 1)]
    raise ValueError(f"unknown request kind {req.kind!r}")


# ---------------------------------------------------------------------------
# Answers and checks (untimed)


def _codes(seq) -> list[int]:
    return [c.code for c in seq]


def answer(req: Request, result):
    """Canonical JSON-able answer; exact except character-sum magnitudes."""
    kind = req.kind
    if kind in SUITES:
        return {"passed": result.passed, "detail": result.detail}
    if kind == "index":
        return {"index": result.index, "L": _codes(result.subspace_poly.lin_coeffs),
                "f": _codes(result.outer.coeffs), "M": _codes(result.linear_part.lin_coeffs),
                "kernel": _codes(result.kernel.basis)}
    if kind == "valueset":
        (size_t, classes_t), (size_b, classes_b), bounds = result
        return {"size_theorem": size_t, "classes_theorem": classes_t,
                "size_brute": size_b, "classes_brute": classes_b,
                "gcd_degree": bounds.gcd_degree, "is_pp": bounds.is_pp}
    if kind == "pp-test":
        return {m: {"is_pp": c.is_pp, "gcd_degree": c.gcd_degree,
                    "witness": None if c.witness is None else _codes(c.witness)}
                for m, c in zip(("certificate", "brute"), result)}
    if kind == "invert":
        inverse, ok = result
        return {"inverse": _codes(inverse.coeffs), "roundtrip": ok}
    if kind == "cycles":
        return {str(k): v for k, v in sorted(result.items())}
    if kind == "charsum":
        return [[r.index, r.image_dim, round(r.magnitude, 9), r.additive_bound]
                for r in result]
    raise ValueError(f"unknown request kind {kind!r}")


def check(addix, fields: dict, req: Request, result) -> str | None:
    """None when the answer is right, else a one-line reason."""
    ax = addix
    kind = req.kind
    if kind in SUITES:
        if result.passed:
            return None
        if kind == REFUTED_SUITE and any(REFUTATION_EVENT in ev for ev in result.events):
            return None
        return f"suite {kind} failed: {result.detail}"
    field = fields[req.field]
    poly = ax.Poly.from_codes(field, req.codes)
    if kind == "index":
        dec = result
        p, n = field.p, field.n
        ok = (dec.compose() == dec.poly
              and dec.outer.constant_term() == dec.poly.constant_term()
              and dec.linear_part.to_poly().constant_term().code == 0
              and dec.linear_part.degree < dec.subspace_poly.degree
              and dec.subspace_poly.degree == p ** (n - dec.index)
              and ax.is_linearized(dec.linear_part.to_poly()) is not None)
        if not ok:
            return "decomposition violates its contract"
        if field.q * poly.degree ** 2 <= BRUTE_KERNEL_BUDGET:
            if ax.additive_kernel(poly, "brute") != dec.kernel:
                return "kernel differs from the brute kernel oracle"
        return None
    if kind == "valueset":
        (size_t, _), (size_b, _), bounds = result
        if not size_t == size_b == bounds.size:
            return f"value set sizes differ: theorem {size_t}, brute {size_b}, bounds {bounds.size}"
        return None
    if kind == "pp-test":
        cert, brute = result
        if cert.is_pp != brute.is_pp:
            return "certificate verdict differs from brute verdict"
        return None
    if kind == "invert":
        _, ok = result
        return None if ok else "inverse round trip failed"
    if kind == "cycles":
        total = sum(length * count for length, count in result.items())
        return None if total == field.q else f"cycle lengths sum to {total}, not {field.q}"
    if kind == "charsum":
        return None if len(result) == field.q - 2 else "missing character reports"
    raise ValueError(f"unknown request kind {kind!r}")


def properties(req: Request, result, fields: dict) -> dict:
    """Input properties of one request, for the run's input summary."""
    if req.kind in SUITES:
        return {}
    field = fields[req.field]
    out = {"q": field.q, "degree": len(req.codes) - 1}
    if req.kind == "index":
        out["nontrivial_kernel"] = result.kernel.dim > 0
    elif req.kind == "charsum":
        out["nontrivial_kernel"] = result[0].index < field.n
    elif req.kind == "pp-test":
        out["witness_scan"] = not result[0].is_pp
    return out
