"""Point lattices on the disk: separated, covering, finite multiplicity.

A lattice at scale r is a maximal r/2-separated subset of the working ball
B(o, domain_radius).  Maximality makes the r/2-balls around the points a
cover of the domain, and the separation makes the r/4-balls disjoint, which
caps how many r-balls can overlap at any location.  The separation holds
by construction (one greedy keeps only points r/2-far from those before
it) and is measured by _min_separation; the cover and the multiplicity are
certified numerically on seeded probe sets at construction time.

Greedy insertion over a shuffled dense candidate net produces the packing.
The candidate order is randomized by seed (maximal packings are not unique)
but the origin is always offered first so that the degenerate tiny-domain
lattice is exactly {o}.  The same greedy, run on the cover probes the
packing left uncovered, patches the slivers the net misses.

Every neighbour search goes through a grid of square cells on the Euclidean
coordinates.  The hyperbolic ball of radius t about w is the Euclidean disk
of centre w (1 - T) / (1 - T |w|^2) and radius
sqrt(T) (1 - |w|^2) / (1 - T |w|^2), T = tanh(t/2)^2, so each of its points
lies within sqrt(T) (1 - |w|^2) / (1 - sqrt(T) |w|) <= sqrt(T) / (1 - T) =
sinh(t) / 2 of w.  With cells of that side (widened by 1e-9 relative for
rounding, _tree_radius) the pairs within t lie in the 3 x 3 cells about
each point.  The points are sorted by cell key, row by row, so the three
cells of one row are one contiguous run of the sorted points: three runs
per query point give a superset of the pairs within t, and the exact
Mobius quotient then decides each pair, so the lattices and certificates
are those of the dense all-pairs passes.

Memory: the candidate pairs come in blocks of about geometry.PAIR_BLOCK / 8
(_pair_blocks), and the cover and multiplicity certificates reduce each
block's quotients (a running minimum, a running count) before the next,
so no certificate holds all its pairs at once, and neither does the cover
probes' update after the patches (_lower_quotient_sq).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificationFailed, ProblemTooLarge
from .geometry import PAIR_BLOCK, multiplicity_bound, random_ball_points

__all__ = [
    "Lattice",
    "build_lattice",
    "certify_cover",
    "certify_multiplicity",
]

_N_PROBES = 10_000
_N_CERT_ROUNDS = 2
# the largest candidate-net bound build_lattice accepts (16 bytes a
# candidate); the finest lattice in use, r = 0.025 on radius 1.4, nets
# 738,791 under a bound of 747,007
_MAX_CANDIDATES = 10_000_000
# candidate pairs per block of _pair_blocks: a pair costs about ten 8-byte
# entries across _pair_blocks and its consumers, so a block's arrays come
# to about one geometry.PAIR_BLOCK of float64
_BLOCK_PAIRS = PAIR_BLOCK // 8


@dataclass(frozen=True, eq=False)
class Lattice:
    points: np.ndarray  # complex disk coordinates
    r: float
    n_mult: int
    domain_radius: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=complex))

    def __len__(self) -> int:
        return self.points.size


def _sep_param(r: float, factor: float) -> float:
    # hyperbolic distance t corresponds to |mobius quotient| = tanh(t/2)
    return math.tanh(r * factor / 2.0)


def _quotient_sq(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Squared modulus of the Mobius difference quotient, elementwise."""
    num = np.abs(z - w) ** 2
    den = np.abs(1.0 - np.conj(w) * z) ** 2
    return num / den


def _candidate_net(domain_radius: float, spacing: float, rng) -> np.ndarray:
    """Rings of spacing-separated nodes out to the domain radius, origin first,
    remainder shuffled."""
    rings = [np.array([0.0 + 0.0j])]
    n_rings = int(math.floor(domain_radius / spacing))
    for i in range(1, n_rings + 1):
        s = i * spacing
        m = max(6, int(math.ceil(2.0 * math.pi * math.sinh(s) / spacing)))
        ang = 2.0 * math.pi * (np.arange(m) + rng.uniform()) / m
        rings.append(math.tanh(s / 2.0) * np.exp(1j * ang))
    net = np.concatenate(rings)
    rng.shuffle(net[1:])
    return net


def _log_net_size(domain_radius: float, r: float) -> float:
    """Log of a bound on len(_candidate_net(R, s)), s = r / 8: the origin
    and floor(R / s) rings, ring i of at most 6 + 2 pi sinh(i s) / s nodes.
    That is 1 if R < s, else at most 1 + 6 R / s + 2 pi (cosh(R + s) -
    cosh(s)) / s^2 = 1 + 6 R / s + 4 pi sinh(R / 2 + s) sinh(R / 2) / s^2,
    as s sinh(i s) <= cosh((i + 1) s) - cosh(i s).  In logs, as it can
    overflow a float."""
    if domain_radius < r / 8.0:
        return 0.0
    log_s = math.log(r) - math.log(8.0)
    log_sinh = _log_sinh(domain_radius / 2.0 + r / 8.0) \
        + _log_sinh(domain_radius / 2.0)
    return float(np.logaddexp.reduce([
        0.0, math.log(6.0) + math.log(domain_radius) - log_s,
        math.log(4.0 * math.pi) + log_sinh - 2.0 * log_s]))


def _log_sinh(x: float) -> float:
    """log sinh(x) for x > 0, finite wherever x is."""
    return x + math.log(-math.expm1(-2.0 * x) / 2.0)


def _log_min_points(domain_radius: float, r: float) -> float:
    """Log of a lower bound on len(build_lattice(r, domain_radius, seed)).

    The balls of radius r/2 (the certified cover) plus r/8 (the candidate
    net's gap) about the points cover B(o, R), so N is at least
    (cosh R - 1) / (cosh(5 r / 8) - 1) = (sinh(R / 2) / sinh(5 r / 16))^2.
    At r = 0.1 on radius 1.4 that is 589 against the 1889 points built.
    """
    return 2.0 * (_log_sinh(domain_radius / 2.0) - _log_sinh(5.0 * r / 16.0))


def _sci(log10_x: float) -> str:
    """10^log10_x in scientific notation, even past the float range."""
    return f"{10.0 ** (log10_x % 1.0):.2f}e{math.floor(log10_x):+d}"


def _tree_radius(t: float) -> float:
    """Euclidean radius about w holding every point within distance t of w,
    at most the disk's diameter 2, which holds every pair (sinh(t) itself
    overflows past t = 710)."""
    return min(2.0, 0.5 * math.sinh(min(t, 3.0)) * (1.0 + 1e-9))


def _cell_keys(z: np.ndarray, side: float) -> tuple[np.ndarray, int]:
    """Keys of the points' cells in a grid of square cells of at least the
    given side over their bounding box, and the grid's row width.

    A key is row * width + column; columns start at 1 and every row has
    two spare columns, so the cells c - 1, c, c + 1 of one row are
    consecutive keys.  Cells are at least 2^-20 of the box wide, which
    keeps the keys in range at any radius (larger cells only widen the
    candidate runs).
    """
    lo = complex(z.real.min(), z.imag.min())
    span = complex(z.real.max(), z.imag.max()) - lo
    side = max(side, max(span.real, span.imag) * 2.0 ** -20) or 1.0
    width = int(span.real / side) + 3
    col = np.floor((z.real - lo.real) / side).astype(np.intp) + 1
    row = np.floor((z.imag - lo.imag) / side).astype(np.intp)
    return row * width + col, width


def _pair_blocks(x: np.ndarray, y: np.ndarray, t: float):
    """Yield index arrays (i, j) of a superset of the pairs with
    d(x[i], y[j]) <= t, one block at a time.

    The extra pairs are at most sinh(t)/2 apart in the Euclidean sense; the
    caller decides each pair with an exact test.  The candidate pairs are
    read in blocks of whole cell runs, about _BLOCK_PAIRS pairs each (a
    longer run is a block of its own), so the temporaries follow the block,
    not all candidates at once, and a caller that reduces each block as it
    comes never holds all pairs.
    """
    if x.size == 0 or y.size == 0:
        return
    side = _tree_radius(t)
    keys, width = _cell_keys(np.concatenate([x, y]), side)
    x_order, y_order = np.argsort(keys[:x.size]), np.argsort(keys[x.size:])
    xs, ys = x[x_order], y[y_order]
    y_keys = keys[x.size:][y_order]
    # the run of cells c - 1 .. c + 1 in the rows above, at and below each x
    first = keys[:x.size][x_order] + (width * np.arange(-1, 2) - 1)[:, None]
    lo = np.searchsorted(y_keys, first).ravel()
    count = np.searchsorted(y_keys, first + 3).ravel() - lo
    ends = np.cumsum(count)
    a = 0
    while a < count.size:
        done = ends[a] - count[a]
        b = max(a + 1, int(np.searchsorted(ends, done + _BLOCK_PAIRS,
                                           "right")))
        # positions in the sorted x and y, so the runs are read in order:
        # run k belongs to x k mod x.size and starts at y position lo[k]
        runs = count[a:b]
        i = np.repeat(np.arange(a, b) % x.size, runs)
        j = np.arange(done, ends[b - 1]) \
            + np.repeat(lo[a:b] - (ends[a:b] - runs), runs)
        gap = xs[i]
        gap -= ys[j]
        keep = gap.real * gap.real + gap.imag * gap.imag <= side * side
        i, j = x_order[i[keep]], y_order[j[keep]]
        del gap, keep      # not held while the caller works on the block
        yield i, j
        a = b


def _greedy_packing(candidates: np.ndarray, r: float) -> np.ndarray:
    """Sequential-greedy acceptance.

    A candidate is kept exactly when it is r/2-far from every point kept
    before it: each kept point drops the live candidates within r/2 of it,
    read from the three cell runs about it.  Those runs also hold the point
    itself and earlier kept points; marking them dead changes nothing, as
    the loop has passed them.
    """
    if candidates.size == 0:
        return candidates
    thresh = _sep_param(r, 0.5) ** 2
    keys, width = _cell_keys(candidates, _tree_radius(r / 2.0))
    order = np.argsort(keys)
    # start[k]: the first sorted position at or past cell key base + k, so
    # the run of cells c - 1 .. c + 1 is order[start[c - 1]:start[c + 2]]
    base = int(keys.min()) - width - 1
    start = np.searchsorted(keys[order], np.arange(base, int(keys.max())
                                                   + width + 3)).tolist()
    cell = keys - base
    live = np.ones(candidates.size, dtype=bool)
    kept = []
    for i in range(candidates.size):
        if not live[i]:
            continue
        kept.append(i)
        c = int(cell[i])
        near = np.concatenate([order[start[k - 1]:start[k + 2]]
                               for k in (c - width, c, c + width)])
        near = near[live[near]]
        close = _quotient_sq(candidates[near], candidates[i]) < thresh
        live[near[close]] = False
    return candidates[kept]


def _min_quotient_sq(probes: np.ndarray, points: np.ndarray,
                     t: float) -> np.ndarray:
    """Each probe's least quotient over the points.

    Exact from the pairs within t wherever that least value is within t;
    a probe with no point within t gets its dense row instead.  The
    quotients are taken one block of _pair_blocks at a time.  The blocks
    are queried from the points, so _pair_blocks' per-query arrays follow
    the lattice's size, not the 20,000 cover probes; the pairs are the
    same either way round, and a minimum does not depend on their order.
    """
    q = np.full(probes.size, np.inf)
    _lower_quotient_sq(q, probes, points, t)
    for k in np.flatnonzero(q > _sep_param(t, 1.0) ** 2):
        q[k] = _quotient_sq(probes[k], points).min()
    return q


def _lower_quotient_sq(q: np.ndarray, probes: np.ndarray, points: np.ndarray,
                       t: float) -> None:
    """Lower each probe's q in place to its quotient over every point in its
    pairs within t (and some farther ones: _pair_blocks' superset)."""
    for i, j in _pair_blocks(points, probes, t):
        np.minimum.at(q, j, _quotient_sq(probes[j], points[i]))


def _cover_radius(min_q: np.ndarray) -> float:
    """Largest probe-to-lattice distance, from the probes' min quotients."""
    return 2.0 * math.atanh(math.sqrt(float(min_q.max(initial=0.0))))


def _probe_cover(probes: np.ndarray, points: np.ndarray, r: float) -> float:
    """Largest distance from a probe to its nearest point, 0.0 with no
    probes; exact, searched first within r/2 (_min_quotient_sq)."""
    return _cover_radius(_min_quotient_sq(probes, points, r / 2.0))


def _min_separation(points: np.ndarray, r: float) -> float:
    """Least distance between two distinct points, inf below two points.

    The pairs within r hold it whenever one pair is that close, as in a
    lattice at scale r, whose r/2-balls cover a connected ball; a point set
    with no such pair is read in all its pairs (t = inf: cells of the
    disk's diameter).
    """
    q = math.inf
    for t in (r, math.inf):
        for i, j in _pair_blocks(points, points, t):
            other = i != j
            q = min(q, float(_quotient_sq(points[i[other]], points[j[other]])
                             .min(initial=math.inf)))
        if q <= _sep_param(t, 1.0) ** 2:
            return 2.0 * math.atanh(math.sqrt(q))
    return math.inf


def _cover_probes(lat_seed: int, domain_radius: float,
                  r: float) -> np.ndarray:
    """The _N_CERT_ROUNDS seeded probe streams on B(o, domain_radius - r),
    concatenated in round order."""
    radius = domain_radius - r
    if radius <= 0:
        return np.empty(0, dtype=complex)
    return np.concatenate([
        random_ball_points(radius, _N_PROBES,
                           np.random.default_rng([lat_seed, 1, round_]))
        for round_ in range(_N_CERT_ROUNDS)])


def _mult_probes(lat_seed: int, domain_radius: float) -> np.ndarray:
    rng = np.random.default_rng([lat_seed, 2])
    return random_ball_points(domain_radius, _N_PROBES, rng)


def build_lattice(r: float, domain_radius: float, seed: int) -> Lattice:
    """Greedy maximal r/2-separated set on B(o, domain_radius), certified.

    Any certification probe left uncovered after the greedy pass is itself a
    valid lattice point (it is more than r/2 from every accepted point), so
    the same greedy, run on the uncovered probes in probe order, patches
    them; the same pass yields the certify_cover value, so the cover check
    can only fail on a logic error.
    """
    if r <= 0 or domain_radius <= 0:
        raise ValueError("r and domain_radius must be positive")
    log10_size = _log_net_size(domain_radius, r) / math.log(10.0)
    if log10_size > math.log10(_MAX_CANDIDATES):
        raise ProblemTooLarge(
            f"a lattice at r = {r!r} on radius {domain_radius!r} nets up to "
            f"{_sci(log10_size)} candidates "
            f"({_sci(log10_size + math.log10(16.0))} bytes), over the "
            f"{_MAX_CANDIDATES:,} limit")
    rng = np.random.default_rng([seed, 0])
    candidates = _candidate_net(domain_radius, r / 8.0, rng)
    points = _greedy_packing(candidates, r)

    # seeded probes shave off the slivers the finite candidate net leaves
    # just beyond r/2; every uncovered probe is more than r/2 from every
    # packed point, so packing them in probe order extends the packing, and
    # the probes' min quotients, lowered by the patch, certify the cover
    probes = _cover_probes(seed, domain_radius, r)
    q = _min_quotient_sq(probes, points, r / 2.0)
    patch = _greedy_packing(probes[q > _sep_param(r, 0.5) ** 2], r)
    points = np.concatenate([points, patch])
    _lower_quotient_sq(q, probes, patch, r / 2.0)
    if _cover_radius(q) > r / 2.0:
        raise CertificationFailed("cover gap survived patch insertion")

    mult = _measure_multiplicity(points, r, _mult_probes(seed, domain_radius))
    _check_volume_bound(mult, r)
    return Lattice(points, float(r), int(mult), float(domain_radius), int(seed))


def _measure_multiplicity(points: np.ndarray, r: float,
                          probes: np.ndarray) -> int:
    if probes.size == 0:
        return 1
    thresh = _sep_param(r, 1.0) ** 2
    count = np.zeros(probes.size, dtype=np.intp)
    # queried from the points, as in _min_quotient_sq
    for i, j in _pair_blocks(points, probes, r):
        count += np.bincount(j[_quotient_sq(probes[j], points[i]) <= thresh],
                             minlength=probes.size)
    return int(count.max())


def _check_volume_bound(measured: int, r: float) -> None:
    bound = multiplicity_bound(r)
    if math.isfinite(bound) and measured > math.ceil(bound):
        raise CertificationFailed(
            f"multiplicity {measured} exceeds volume bound {bound:.3f}")


def certify_cover(lat: Lattice) -> float:
    """Largest distance from a certification probe to the lattice.

    Re-derives the seeded probe rounds used at construction; the result is
    the value build_lattice checked, at most r/2.  This is the probabilistic
    cover certificate: fresh off-grid probes can exceed r/2 by the
    candidate-net gap (below r/8), never more.
    """
    return _probe_cover(_cover_probes(lat.seed, lat.domain_radius, lat.r),
                        lat.points, lat.r)


def certify_multiplicity(lat: Lattice) -> int:
    """Max number of lattice r-balls covering any probe point.

    The separation property caps this by B(3r)/B(r/4): the disjoint
    r/4-balls of the covering points all fit inside a 3r-ball around the
    probe.  Exceeding the cap means the lattice is corrupt.
    """
    measured = _measure_multiplicity(lat.points, lat.r,
                                     _mult_probes(lat.seed, lat.domain_radius))
    _check_volume_bound(measured, lat.r)
    if measured > lat.n_mult:
        raise CertificationFailed(
            f"multiplicity {measured} exceeds certified field {lat.n_mult}")
    return measured
