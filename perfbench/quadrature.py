"""Quadrature workload: time to a stated accuracy on lemniscates and circles.

A round takes three domains U(x0 + y0*S, R) and sweeps each one twice,
on its boundary lemniscate and on the circle of radius y0 + R around it:
the node count doubles from 16 until every expansion coefficient
0..order computed by `coefficient_integral` is within the family's target
relative error of `expand_at`.  One contour is built per node count and
integrated order+1 times.  The round time is the time to accuracy of the
lemniscate sweeps, contour builds included; the circle sweeps, already
spectral, are the control that lemniscate-only changes must leave flat.
After each sweep come `cauchy_eval` at an interior point of each loop of
the converged contour and, on lemniscates, one `coefficient_bound_report`.
Every round repeats the same work.

The polynomial is a fixed degree-8 one, rotated with its slice plane by a
unit quaternion u drawn from the seed: a_n -> u a_n u^-1, I -> u i u^-1.
Conjugation by u is an automorphism, so the converged node counts, and
with them the time to accuracy, stay the same across seeds while every
value the library sees changes.  Freshly drawn polynomials would stop the
doubling at 4096 or 8192 nodes depending on the draw.
"""

import cmath
import random

from refmath import (Outputs, close, embed, qabs, qconj, qmul, qscale, qsub,
                     rand_poly, rand_quat, ref_eval, roundoff_tol)
from spans import Raised

X0, Y0 = 0.0, 1.0
# Connected (R = 2*y0), two loops (R = y0/2) and near the pinch (R = 1.05*y0).
RATIOS = (2.0, 0.5, 1.05)
DEGREE = 8
START_NODES = 16

# Per contour family, in sweep order: target relative error, highest
# coefficient index, node cap (reaching it without the target is a
# failure) and the tolerance of the interior Cauchy reproduction check.  Each lemniscate
# coefficient costs up to 8192 nodes, so lemniscates take 0..1 (one even
# and one odd kernel); circles converge within 128 nodes and take every
# coefficient that can be nonzero at degree 8, so that a round has enough
# work to time.
FAMILIES = {
    "lemniscate": {"target": 1e-6, "order": 1, "cap": 65536, "cauchy": 1e-4},
    "circle": {"target": 1e-10, "order": 8, "cap": 4096, "cauchy": 1e-9},
}
BOUND_SAMPLES = 4096    # coefficient_bound_report's default boundary sample

# The fixed polynomial; the accuracy section (error against node count)
# uses it unrotated, in the plane of i, so it repeats across runs.
BASE_SEED = 20111018
ACCURACY_RATIOS = (2.0, 0.5, 1.05, 1.01)
ACCURACY_NODES = (16, 64, 256, 1024)
ACCURACY_ORDER = 1


def base_poly():
    return rand_poly(random.Random(BASE_SEED), DEGREE)


def ratio_tag(ratio):
    return "r" + format(ratio, "g").replace(".", "p")


class Case:
    """One polynomial with its slice plane, references and probe points."""

    def __init__(self, lib, rng):
        u = rand_quat(rng)
        u = qscale(u, 1.0 / qabs(u))
        self.coeffs = [qmul(qmul(u, a), qconj(u)) for a in base_poly()]
        self.unit_t = qmul(qmul(u, (0.0, 1.0, 0.0, 0.0)), qconj(u))
        self.f = lib.SlicePoly(lib.Quaternion(*c) for c in self.coeffs)
        self.unit = lib.Quaternion(*self.unit_t)
        self.q0 = lib.embed_complex(complex(X0, Y0), self.unit)
        order = max(spec["order"] for spec in FAMILIES.values())
        self.refs = lib.expand_at(self.f, self.q0, order).coeffs
        z0 = complex(X0, Y0)
        self.interior = []
        for ratio in RATIOS:
            radius = ratio * Y0
            # |z - z0| * |z - conj(z0)| < R^2 holds for |z - z0| below
            # R^2 / (2 y0); a third of that (capped) is safely inside both
            # the lemniscate and the circle of radius y0 + R.  Each loop
            # gets a point.
            reach = min(radius * radius / (2.0 * Y0), Y0) / 3.0
            centres = (z0, z0.conjugate()) if radius < Y0 else (z0,)
            points = []
            for centre in centres:
                z = centre + reach * cmath.exp(1j * rng.uniform(0, 6.283))
                points.append((lib.embed_complex(z, self.unit),
                               ref_eval(self.coeffs, embed(z, self.unit_t))))
            self.interior.append(points)


class Quadrature:
    def setup(self, lib, seed, smoke):
        self.lib = lib
        self.orders = {family: 0 if smoke else spec["order"]
                       for family, spec in FAMILIES.items()}
        self.case = Case(lib, random.Random(seed))
        self.domains = [lib.LemniscateDomain(X0, Y0, r * Y0) for r in RATIOS]
        self.outputs = Outputs()

    def build(self, family, domain, unit, nodes):
        if family == "lemniscate":
            return self.lib.lemniscate_contour(domain, unit, nodes)
        return self.lib.circle_contour(domain.x0, domain.y0 + domain.radius,
                                       unit, nodes)

    def run_round(self, rec):
        start = len(rec.latencies)
        slots = {family: [] for family in FAMILIES}
        for d, domain in enumerate(self.domains):
            for family in FAMILIES:
                first = len(rec.latencies) - start
                contour = self.sweep(family, d, domain, rec)
                slots[family].extend(range(first, len(rec.latencies) - start))
                if not isinstance(contour, Raised):
                    self.follow_ups(family, d, domain, contour, rec)
        # Positions of each family's sweep requests within a round: their
        # time is the family's time to accuracy.
        self.sweep_slots = slots
        self.tta_slots = slots["lemniscate"]

    def sweep(self, family, d, domain, rec):
        """Double the node count until the target is met; returns the last
        contour."""
        case, spec, order = self.case, FAMILIES[family], self.orders[family]
        with rec.group(f"sweep.{family}"):
            nodes, requests = START_NODES, 0
            while True:
                contour = rec.request(f"contour.{family}_contour", self.build,
                                      family, domain, case.unit, nodes)
                requests += 1
                if isinstance(contour, Raised):
                    values = [contour]
                    break
                values = [rec.request("contour.coefficient_integral",
                                      self.lib.coefficient_integral, case.f,
                                      case.q0, n, contour)
                          for n in range(order + 1)]
                requests += len(values)
                evaluated(rec, nodes * len(values))
                if rel_error(values, case.refs) <= spec["target"] \
                        or nodes >= spec["cap"]:
                    break
                nodes *= 2
        self.outputs.add(("sweep", family, d), (nodes, values), requests)
        return contour

    def follow_ups(self, family, d, domain, contour, rec):
        case = self.case
        for p, (z, _) in enumerate(case.interior[d]):
            out = rec.request("contour.cauchy_eval", self.lib.cauchy_eval,
                              case.f, z, contour)
            evaluated(rec, len(contour))
            self.outputs.add(("cauchy", family, d, p), out)
        if family == "lemniscate":
            out = rec.request("contour.coefficient_bound_report",
                              self.lib.coefficient_bound_report, case.f,
                              domain, case.unit, self.orders[family])
            evaluated(rec, BOUND_SAMPLES)
            self.outputs.add(("bound", family, d, 0), out)

    def nodes_to_tol(self, family):
        """The family's final node counts, summed over the three domains:
        a deterministic count for a given seed."""
        return sum(out[0] for key, out in self.outputs.first.items()
                   if key[:2] == ("sweep", family))

    def check(self, corrupt=False):
        """Failed requests.  `corrupt` perturbs one reference value, which
        must then be counted as a failure."""
        refs = list(self.case.refs)
        if corrupt:
            refs[0] = refs[0] * 1.001

        def check(key, out):
            kind, family, d, *p = key
            if kind == "sweep":
                return rel_error(out[1], refs) <= FAMILIES[family]["target"]
            return self.check_follow_up(family, d, kind, *p, out, refs)

        return self.outputs.failed(check)

    def check_follow_up(self, family, d, kind, p, out, refs):
        if isinstance(out, Raised):
            return False
        if kind == "cauchy":
            _, expected = self.case.interior[d][p]
            tol = FAMILIES[family]["cauchy"] * (1.0 + qabs(expected)) \
                + roundoff_tol(self.case.coeffs, 3.0)
            return close(tuple(out.to_list()), expected, tol)
        refs = refs[:self.orders[family] + 1]
        return (len(out.coeff_mags) == len(refs)
                and all(abs(m - abs(r)) <= 1e-12 * (1.0 + abs(r))
                        for m, r in zip(out.coeff_mags, refs))
                and out.min_margin >= -1e-6)


def evaluated(rec, nodes):
    """Count node evaluations and their Horner products (computed: one
    Hamilton product per degree per node)."""
    rec.count("nodes", nodes)
    rec.count("products", nodes * DEGREE)


def rel_error(values, refs):
    if any(isinstance(v, Raised) for v in values):
        return float("inf")
    return max(qabs(qsub(tuple(v.to_list()), tuple(r.to_list()))) / abs(r)
               for v, r in zip(values, refs))


def accuracy_section(lib):
    """{metric name: relative error} for every shape and node count."""
    f = lib.SlicePoly(lib.Quaternion(*c) for c in base_poly())
    unit = lib.UNIT_I
    q0 = lib.embed_complex(complex(X0, Y0), unit)
    refs = lib.expand_at(f, q0, ACCURACY_ORDER).coeffs
    out = {}
    for ratio in ACCURACY_RATIOS:
        domain = lib.LemniscateDomain(X0, Y0, ratio * Y0)
        for shape in ("circle", "lemniscate"):
            for nodes in ACCURACY_NODES:
                if shape == "circle":
                    contour = lib.circle_contour(X0, Y0 + ratio * Y0, unit,
                                                 nodes)
                else:
                    contour = lib.lemniscate_contour(domain, unit, nodes)
                values = [lib.coefficient_integral(f, q0, n, contour)
                          for n in range(ACCURACY_ORDER + 1)]
                name = f"contour.{shape}_{ratio_tag(ratio)}.err_at_{nodes}"
                out[name] = rel_error(values, refs)
    return out


def accuracy_names():
    return [f"contour.{shape}_{ratio_tag(ratio)}.err_at_{nodes}"
            for ratio in ACCURACY_RATIOS for shape in ("circle", "lemniscate")
            for nodes in ACCURACY_NODES]
