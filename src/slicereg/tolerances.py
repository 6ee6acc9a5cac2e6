"""Shared numerical tolerances.

All guards scale with the magnitude of the data they protect, so the
constants here are dimensionless base values.  A guard eps (1 + a + b)
whose sum can pass the float range for finite a, b is formed as
(2 eps) (0.5 + 0.5 a + 0.5 b), summed in the same order: halving and
doubling are exact, so it is the same float wherever the plain sum is
finite, and it stays finite beyond.  The zero threshold used by the
multiplicity algorithms is deliberately a single shared value: those
algorithms are threshold-sensitive and must agree on what counts as zero.
"""

# Singularity guard, scaled by (1 + |operand|): inverses, and the
# degenerate sphere test Sphere.is_point (y0 against 1 + |x0|).
EPS_ZERO = 1e-14

# Unit/slice-plane membership checks (imaginary units, contour nodes).
EPS_UNIT = 1e-12

# Boundary classification of lemniscate sets: | |(q-x0)^2 + y0^2| - R^2 |
# scaled by (1 + R^2); boundary samples are good to ~1e-15 relative.  Also
# the figure-eight test |R - y0| <= EPS_BOUNDARY (1 + y0 + R) of shape(),
# which alone refuses a pinched contour (its corner defeats the weights).
EPS_BOUNDARY = 1e-9

# Off-plane distance of a point handed to quadrature in the contour's
# slice plane (a Cauchy point, the base point of a coefficient integral),
# scaled by (1 + |q|); input: ~1e-16.
EPS_IN_PLANE = 1e-9

# Pole-to-node distance, scaled by (1 + |pole|); nearer, 1/(s - pole) has
# at most ~7 correct digits.
EPS_NODE = 1e-9

# Default of Sphere.contains, scaled by (1 + |x0| + y0), and so the check
# that a MultiplicityReport's isolated point lies on its sphere: a point
# built from its sphere (x0 + I y0) is on it to ~1e-15, and 1e-9 leaves
# room for a few further operations.
EPS_ON_SPHERE = 1e-9

# Sample points a caller hands in as lying on a sphere (expand_pair's
# pair, representation_eval's points), scaled by (1 + |x0| + y0).  These
# come from outside, e.g. from decimal input written to six or seven
# significant digits, so the test is far looser than EPS_ON_SPHERE.
EPS_SAMPLE_ON_SPHERE = 1e-6

# | |v| - 1 | of a direction handed to directional_derivative, absolute.
# A direction normalised in binary64 is unit to ~1e-16; the guard refuses
# unnormalised directions rather than directions with roundoff.
EPS_DIRECTION = 1e-9

# Cauchy-estimate margin bound - |A_n| below which verify-cauchy exits 1.
# Absolute, not scaled by the size of f, so the verdict depends on the
# scale of f.  The bound rests on a boundary maximum sampled at finitely
# many nodes, a lower bound on the true maximum, and on a boundary length
# from central differences; nothing shows that the margin absorbs their
# shortfall.
EPS_BOUND_MARGIN = 1e-6

# Coefficient/value zero test in multiplicity algorithms, scaled by
# max |coeff of f|.  Overridable per call and via the CLI.
EPS_MULT = 1e-10

# On-sphere test of a root -b c^(-1) of b + q*c, scaled by (1 + |x0| + y0):
# b and c carry the roundoff of the divisions and of peeled factors.
EPS_ROOT = 1e-10

# Consecutive peeled roots this close to conjugate, scaled by (1 + |p|),
# reveal a missed quadratic factor; each root is good to about EPS_ROOT.
# MultiplicityReport checks its factors with the same test, and its
# isolated point (which passed EPS_ROOT) at the EPS_ON_SPHERE default.
EPS_CONJ_FACTOR = 1e-9

# Central finite-difference step for derivative cross-checks.
# Error model: O(step^2) truncation + O(eps_machine/step) roundoff.
FD_STEP = 1e-5


def zero_guard(scale: float) -> float:
    """Threshold below which a quantity of the given scale is singular."""
    return EPS_ZERO * (1.0 + scale)
