"""Shared numerical tolerances.

All guards scale with the magnitude of the data they protect, so the
constants here are dimensionless base values.  The zero threshold used by
the multiplicity algorithms is deliberately a single shared value: those
algorithms are threshold-sensitive and must agree on what counts as zero.
"""

# Singularity guard for inverses, scaled by (1 + |operand|).
EPS_ZERO = 1e-14

# Unit/slice-plane membership checks (imaginary units, contour nodes).
EPS_UNIT = 1e-12

# Trailing-coefficient trim, scaled by max |a_n|.
EPS_COEFF = 1e-12

# Boundary classification of lemniscate sets: | |(q-x0)^2 + y0^2| - R^2 |
# scaled by (1 + R^2); boundary samples are good to ~1e-15 relative.
EPS_BOUNDARY = 1e-9

# Pinched-lemniscate refusal |R - y0|, scaled by (1 + R + y0): the
# figure-eight's corner at x0 defeats the central-difference weights.
EPS_PINCH = 1e-9

# Off-plane distance of a Cauchy point, scaled by (1 + |q|); input: ~1e-16.
EPS_IN_PLANE = 1e-9

# Pole-to-node distance, scaled by (1 + |pole|); nearer, 1/(s - pole) has
# at most ~7 correct digits.
EPS_NODE = 1e-9

# |I -+ I'| of q0's unit against the contour's; each is normalised to ~1e-16.
EPS_PLANE_MATCH = 1e-9

# Separation below which two points count as one, scaled by
# (1 + |q1| + |q2|).  A base point this close to its conjugate is
# numerically real: its expansion omits the base-point-free family, and
# expand_pair refuses a pair this close.  No expansion code divides by
# the separation; the bound decides when a sphere is too thin to tell
# from its real centre.
EPS_PAIR = 1e-6

# Default of Sphere.contains, scaled by (1 + |x0| + y0), and the check
# that an expansion's base point lies on its sphere: a point built from
# its sphere (x0 + I y0, or Sphere.through) is on it to ~1e-15, and 1e-9
# leaves room for a few further operations.
EPS_ON_SPHERE = 1e-9

# Sample points a caller hands in as lying on a sphere (expand_pair's
# pair, representation_eval's points), scaled by (1 + |x0| + y0).  These
# come from outside, e.g. from decimal input, so the test allows the
# EPS_PAIR resolution at which two points are told apart.
EPS_SAMPLE_ON_SPHERE = 1e-6

# Odd coefficients of the two expansion families, scaled by
# (1 + max |A_n|).  The library reads both off the same remainders, so
# they agree exactly; the check guards expansions built by hand, whose
# two families may differ by the roundoff of separate computations.
EPS_FAMILY_MATCH = 1e-9

# | |v| - 1 | of a direction handed to directional_derivative, absolute.
# A direction normalised in binary64 is unit to ~1e-16; the guard refuses
# unnormalised directions rather than directions with roundoff.
EPS_DIRECTION = 1e-9

# Cauchy-estimate margin bound - |A_n| below which verify-cauchy exits 1.
# Absolute, not scaled by the size of f: the bound rests on a boundary
# maximum sampled at finitely many nodes, which can fall short of the true
# maximum, and the margin absorbs that shortfall.
EPS_BOUND_MARGIN = 1e-6

# Coefficient/value zero test in multiplicity algorithms, scaled by
# max |coeff of f|.  Overridable per call and via the CLI.
EPS_MULT = 1e-10

# On-sphere test of a root -b c^(-1) of b + q*c, scaled by (1 + |x0| + y0):
# b and c carry the roundoff of the divisions and of peeled factors.
EPS_ROOT = 1e-10

# Consecutive peeled roots this close to conjugate, scaled by (1 + |p|),
# reveal a missed quadratic factor; each root is good to about EPS_ROOT.
EPS_CONJ_FACTOR = 1e-9

# MultiplicityReport invariants: isolated point on the sphere (scaled by
# 1 + |x0| + y0; it passed EPS_ROOT) and consecutive factors not conjugate
# (scaled by 1 + |p|; peeling kept them EPS_CONJ_FACTOR apart).
EPS_REPORT_ON_SPHERE = 1e-9
EPS_REPORT_CONJ = 1e-12

# Central finite-difference step for derivative cross-checks.
# Error model: O(step^2) truncation + O(eps_machine/step) roundoff.
FD_STEP = 1e-5


def zero_guard(scale: float) -> float:
    """Threshold below which a quantity of the given scale is singular."""
    return EPS_ZERO * (1.0 + scale)
