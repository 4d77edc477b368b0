"""Lattice construction, certification, and the sampling inequality probe."""

import hashlib
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersample import lattice as lattice_mod
from hypersample.bandlimited import synthesize
from hypersample.errors import CertificationFailed, ProblemTooLarge
from hypersample.geometry import (PAIR_BLOCK, ball_volume, distance,
                                  multiplicity_bound, random_ball_points)
from hypersample.lattice import (Lattice, build_lattice, certify_cover,
                                 certify_multiplicity)
from hypersample.spectral import build_grid, sobolev_multiplier
from hypersample.transforms import BandlimitedFunction, apply_multiplier


def _pairwise_min(points):
    dm = distance(points[:, None], points[None, :])
    np.fill_diagonal(dm, np.inf)
    return dm.min()


def test_tiny_domain_is_origin_only():
    lat = build_lattice(0.4, 0.1, seed=0)
    assert len(lat) == 1
    assert lat.points[0] == 0
    assert lat.n_mult == 1
    assert certify_multiplicity(lat) == 1


def test_build_lattice_measures_multiplicity_once(monkeypatch):
    calls = []
    measure = lattice_mod._measure_multiplicity

    def counted(*args):
        calls.append(args)
        return measure(*args)

    monkeypatch.setattr(lattice_mod, "_measure_multiplicity", counted)
    lat = build_lattice(0.4, 1.2, seed=0)
    assert len(calls) == 1
    # the public certificate still measures afresh and agrees
    assert certify_multiplicity(lat) == lat.n_mult
    assert len(calls) == 2


def test_build_lattice_certifies_cover_in_one_pass(monkeypatch):
    passes, checked = [], []
    min_q, radius = lattice_mod._min_quotient_sq, lattice_mod._cover_radius

    def counted(*args):
        passes.append(args)
        return min_q(*args)

    def recorded(q):
        checked.append(radius(q))
        return checked[-1]

    def forbidden(lat):
        raise AssertionError("build_lattice measured the cover a second time")

    monkeypatch.setattr(lattice_mod, "_min_quotient_sq", counted)
    monkeypatch.setattr(lattice_mod, "_cover_radius", recorded)
    monkeypatch.setattr(lattice_mod, "certify_cover", forbidden)
    lat = build_lattice(0.4, 1.2, seed=0)
    assert len(passes) == 1 and len(checked) == 1
    monkeypatch.undo()
    # the public certificate re-derives the probes and agrees exactly
    assert certify_cover(lat) == checked[0] <= lat.r / 2


@pytest.mark.parametrize("domain, spacing", [(1.4, 0.05), (2.0, 0.1),
                                             (0.4, 0.5), (1.5, 25.0)])
def test_candidate_net_matches_permuted_rings(domain, spacing):
    # the oracle: rings drawn in order, then the non-origin nodes taken
    # through one permutation and appended to the origin
    rng, ref_rng = (np.random.default_rng([7, 0]) for _ in range(2))
    rings = [np.array([0.0 + 0.0j])]
    for i in range(1, int(math.floor(domain / spacing)) + 1):
        s = i * spacing
        m = max(6, int(math.ceil(2.0 * math.pi * math.sinh(s) / spacing)))
        ang = 2.0 * math.pi * (np.arange(m) + ref_rng.uniform()) / m
        rings.append(math.tanh(s / 2.0) * np.exp(1j * ang))
    rest = np.concatenate(rings[1:]) if len(rings) > 1 else np.empty(0, complex)
    ref = np.concatenate([rings[0], rest[ref_rng.permutation(rest.size)]])
    net = lattice_mod._candidate_net(domain, spacing, rng)
    assert net.tobytes() == ref.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert math.log(net.size) <= lattice_mod._log_net_size(domain,
                                                            8 * spacing)


@pytest.mark.parametrize("r, seed", [(0.4, 0), (0.3, 5)])
def test_greedy_packing_matches_definition(r, seed):
    # a candidate is kept iff its quotient from every earlier kept point
    # reaches the r/2 threshold
    net = lattice_mod._candidate_net(1.0, r / 4.0,
                                     np.random.default_rng([seed, 0]))
    thresh = lattice_mod._sep_param(r, 0.5) ** 2
    kept = []
    for c in net:
        if all(lattice_mod._quotient_sq(c, k) >= thresh for k in kept):
            kept.append(c)
    packing = lattice_mod._greedy_packing(net, r)
    assert packing.dtype == complex
    assert np.array_equal(packing, np.array(kept))


@settings(max_examples=300, deadline=None)
@given(w_abs=st.floats(0.0, 0.99), w_arg=st.floats(-math.pi, math.pi),
       big_t=st.floats(1e-12, 0.9, exclude_max=True),
       u_scale=st.floats(0.0, 1.0), u_arg=st.floats(-math.pi, math.pi))
def test_quotient_ball_lies_within_tree_radius(w_abs, w_arg, big_t, u_scale,
                                               u_arg):
    # z = (u + w) / (1 + conj(w) u) has quotient |u|^2 against w, so
    # |u| <= sqrt(T) sweeps the ball {z : q(z, w) <= T}, its rim included
    w = w_abs * np.exp(1j * w_arg)
    u = u_scale * math.sqrt(big_t) * np.exp(1j * u_arg)
    z = (u + w) / (1.0 + np.conj(w) * u)
    if lattice_mod._quotient_sq(z, w) <= big_t:
        t = 2.0 * math.atanh(math.sqrt(big_t))
        assert abs(z - w) <= lattice_mod._tree_radius(t)


@st.composite
def _disk_points(draw, side):
    """Up to 30 disk points: uniform in radius and angle, or on the corners
    and edges of the cell grid of the given side."""
    out = []
    for _ in range(draw(st.integers(0, 30))):
        if draw(st.booleans()):
            z = draw(st.floats(0.0, 0.999)) \
                * np.exp(1j * draw(st.floats(-math.pi, math.pi)))
        else:
            n = int(2.0 / side) + 1
            a, b = draw(st.integers(0, n)), draw(st.integers(0, n))
            z = complex(-1.0 + a * side, -1.0 + b * side
                        + draw(st.sampled_from([0.0, 0.5 * side])))
        if abs(z) < 0.999:
            out.append(z)
    return np.array(out, dtype=complex)


@settings(max_examples=300, deadline=None)
@given(t=st.one_of(st.floats(1e-4, 4.0), st.sampled_from([0.2, 1.0, 2.5])),
       data=st.data())
def test_near_pairs_matches_brute_force(t, data):
    # every pair within t, and every pair within sinh(t)/2 in the Euclidean
    # sense, is found exactly once; no pair beyond the cell side is returned
    side = lattice_mod._tree_radius(t)
    x = data.draw(_disk_points(side))
    y = data.draw(_disk_points(side))
    i, j = _joined_pair_blocks(x, y, t)
    found = set(zip(i.tolist(), j.tolist()))
    assert len(found) == i.size
    gap = np.abs(x[:, None] - y[None, :])
    hyper = distance(x[:, None], y[None, :]) if x.size and y.size else gap
    need = set(zip(*np.nonzero((hyper <= t) | (gap <= 0.5 * math.sinh(t)))))
    allowed = set(zip(*np.nonzero(gap <= side * (1.0 + 1e-12))))
    assert need <= found <= allowed


def _joined_pair_blocks(x, y, t):
    """The pairs of every block of _pair_blocks, concatenated."""
    blocks = list(lattice_mod._pair_blocks(x, y, t))
    if not blocks:
        return np.empty(0, np.intp), np.empty(0, np.intp)
    return tuple(np.concatenate(part) for part in zip(*blocks))


def _near_pairs_single_pass(x, y, t):
    """_pair_blocks with every candidate pair formed at once, the form the
    blocked search splits into runs of about PAIR_BLOCK pairs."""
    if x.size == 0 or y.size == 0:
        return np.empty(0, np.intp), np.empty(0, np.intp)
    side = lattice_mod._tree_radius(t)
    keys, width = lattice_mod._cell_keys(np.concatenate([x, y]), side)
    x_order, y_order = np.argsort(keys[:x.size]), np.argsort(keys[x.size:])
    y_keys = keys[x.size:][y_order]
    first = keys[:x.size][x_order] + (width * np.arange(-1, 2) - 1)[:, None]
    lo = np.searchsorted(y_keys, first).ravel()
    count = np.searchsorted(y_keys, first + 3).ravel() - lo
    ends = np.cumsum(count)
    i = np.repeat(np.tile(np.arange(x.size), 3), count)
    j = np.arange(ends[-1]) + np.repeat(lo - (ends - count), count)
    gap = x[x_order][i] - y[y_order][j]
    keep = gap.real * gap.real + gap.imag * gap.imag <= side * side
    return x_order[i[keep]], y_order[j[keep]]


@pytest.mark.parametrize("case", ["probes", "long_runs", "empty"])
def test_blocked_near_pairs_match_single_pass(case):
    rng = np.random.default_rng(11)
    if case == "probes":
        # ~7e5 candidates from 2e4 probes on the r = 0.1 lattice: a dozen
        # blocks of whole runs
        x = random_ball_points(1.4, 20_000, rng)
        y = build_lattice(0.1, 1.4, seed=0).points
        t = 0.1
    elif case == "long_runs":
        # every run is longer than a block, so each is a block of its own
        x = random_ball_points(0.01, 3, rng)
        y = random_ball_points(0.01, PAIR_BLOCK + 100, rng)
        t = 1.0
    else:
        x, y, t = random_ball_points(1.0, 50, rng), np.empty(0, complex), 0.5
    i, j = _joined_pair_blocks(x, y, t)
    ref_i, ref_j = _near_pairs_single_pass(x, y, t)
    assert i.size > PAIR_BLOCK or case == "empty"
    assert set(zip(i.tolist(), j.tolist())) \
        == set(zip(ref_i.tolist(), ref_j.tolist()))
    assert i.size == ref_i.size


def _dense_lattice(r, domain, seed):
    """The all-pairs build: survivor sweep, probe-by-point passes in chunks
    of 512 probe rows, and a whole-probe-set update per patch insertion.
    Returns (points, n_mult, cover radius)."""
    def per_probe(probes, points, reduce):
        out = [reduce(lattice_mod._quotient_sq(probes[lo:lo + 512, None],
                                               points[None, :]))
               for lo in range(0, probes.size, 512)]
        return np.concatenate(out) if out else np.empty(0)

    net = lattice_mod._candidate_net(domain, r / 8.0,
                                     np.random.default_rng([seed, 0]))
    thresh = lattice_mod._sep_param(r, 0.5) ** 2
    kept, live = [], net
    while live.size:
        kept.append(live[0])
        rest = live[1:]
        live = rest[lattice_mod._quotient_sq(rest, live[0]) >= thresh]
    points = np.array(kept, dtype=complex)
    probes = lattice_mod._cover_probes(seed, domain, r)
    q = per_probe(probes, points, lambda m: m.min(axis=1))
    # an uncovered probe is patched unless an earlier patch lies within
    # r/2, as in the packing: one at exactly r/2 does not block it
    for i in np.flatnonzero(q > thresh):
        if q[i] >= thresh:
            points = np.append(points, probes[i])
            q = np.minimum(q, lattice_mod._quotient_sq(probes, probes[i]))
    mult_thresh = lattice_mod._sep_param(r, 1.0) ** 2
    counts = per_probe(lattice_mod._mult_probes(seed, domain), points,
                       lambda m: np.count_nonzero(m <= mult_thresh, axis=1))
    return points, int(counts.max()), lattice_mod._cover_radius(q)


@pytest.mark.parametrize("r, domain", [(0.2, 1.4), (0.1, 1.5)])
@pytest.mark.parametrize("seed", [0, 3])
def test_indexed_build_matches_dense_passes(r, domain, seed):
    points, n_mult, cover = _dense_lattice(r, domain, seed)
    lat = build_lattice(r, domain, seed)
    assert lat.points.tobytes() == points.tobytes()
    assert lat.n_mult == n_mult
    assert certify_cover(lat) == cover


@pytest.mark.parametrize("r, domain, seed, points_sha256, n_mult", [
    # 56 uncovered probes, 3 patches
    (0.4, 1.4, 0,
     "5f814af65b97ef6678514f71e41cf11fba16b6abd09c8471c46dabe98ed84fdc", 12),
    # 37 uncovered probes, 9 patches
    (0.3, 1.2, 1,
     "a9fa2dac1beceddd7ba7841abe52aaeec0f6fee2ea8c6e2d8cb5c55a14401f8e", 13),
    # 34 uncovered probes, 16 patches
    (0.2, 1.4, 2,
     "79285a6cd4df693d329b948a618d831d9e97bbfaf286dcd5b652ebb74b91b925", 13),
])
def test_patched_lattices_keep_their_points(r, domain, seed, points_sha256,
                                            n_mult):
    # digests of lattices whose packing leaves probes uncovered, taken when
    # the patches were inserted one probe at a time; the greedy that packs
    # them now must give the same points in the same order
    lat = build_lattice(r, domain, seed)
    assert hashlib.sha256(lat.points.tobytes()).hexdigest() == points_sha256
    assert lat.n_mult == n_mult


def test_greedy_packing_of_no_candidates_is_empty():
    packing = lattice_mod._greedy_packing(np.empty(0, dtype=complex), 0.4)
    assert packing.shape == (0,) and packing.dtype == complex


def test_certify_cover_of_a_lattice_with_holes_is_exact():
    # a hole wider than r/2 leaves probes with no lattice point within the
    # tree radius, and others whose nearby points are all beyond r/2
    lat = build_lattice(0.2, 1.4, seed=0)
    keep = (np.abs(lat.points - 0.3) > 0.2) & (np.arange(len(lat)) % 5 > 0)
    holed = Lattice(lat.points[keep], lat.r, lat.n_mult, lat.domain_radius,
                    lat.seed)
    probes = lattice_mod._cover_probes(lat.seed, lat.domain_radius, lat.r)
    dense = lattice_mod._quotient_sq(probes[:, None],
                                     holed.points[None, :]).min(axis=1)
    assert certify_cover(holed) == lattice_mod._cover_radius(dense)
    assert certify_cover(holed) > 2.0 * lat.r
    mult_probes = lattice_mod._mult_probes(lat.seed, lat.domain_radius)
    q = lattice_mod._quotient_sq(mult_probes[:, None], holed.points[None, :])
    counts = np.count_nonzero(q <= lattice_mod._sep_param(lat.r, 1.0) ** 2,
                              axis=1)
    assert certify_multiplicity(holed) == counts.max()


def test_fine_lattice_builds_in_near_linear_time():
    # N ~ 3e4 from ~7e5 candidates takes a few seconds through the cell
    # grid; the all-pairs sweep would take minutes
    start = time.perf_counter()
    lat = build_lattice(0.025, 1.4, seed=0)
    elapsed = time.perf_counter() - start
    assert len(lat) > 25_000
    assert certify_cover(lat) <= lat.r / 2
    assert certify_multiplicity(lat) <= math.ceil(multiplicity_bound(lat.r))
    assert elapsed < 30.0


def test_certificates_hold_one_block_of_pairs_at_a_time():
    # the spline scenario's lattice: 20,000 cover probes meet 71,000 pairs
    # and 10,000 multiplicity probes 171,000, which one pass over all pairs
    # held at once (17 MB).  Taken in _pair_blocks' blocks, the transients
    # are the lattice points' run indices and one block of PAIR_BLOCK / 8
    # candidates.
    tracemalloc.start()
    try:
        lat = build_lattice(0.8, 2.0, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lat) == 83
    assert peak <= 12e6


def test_build_lattice_rejects_count_above_volume_bound(monkeypatch):
    monkeypatch.setattr(lattice_mod, "_measure_multiplicity",
                        lambda *args: 10 ** 6)
    with pytest.raises(CertificationFailed, match="volume bound"):
        build_lattice(0.4, 1.2, seed=0)


@pytest.mark.parametrize("r", [0.1, 0.2, 0.4])
def test_packing_cover_multiplicity(r):
    domain = 1.5
    lat = build_lattice(r, domain, seed=0)
    assert _pairwise_min(lat.points) >= r / 2 - 1e-12

    # the seeded certification probes are covered at exactly r/2
    assert certify_cover(lat) <= r / 2

    # fresh probes may land in slivers the candidate net missed; the
    # deterministic geometric bound there is r/2 plus the net gap (r/8)
    rng = np.random.default_rng(99)
    u = rng.random(10_000)
    s = np.arccosh(1.0 + u * (np.cosh(domain - r) - 1.0))
    probes = np.tanh(s / 2) * np.exp(2j * np.pi * rng.random(10_000))
    nearest = distance(probes[:, None], lat.points[None, :]).min(axis=1)
    assert nearest.max() <= r / 2 + r / 8

    measured = certify_multiplicity(lat)
    assert measured <= lat.n_mult
    assert measured <= math.ceil(ball_volume(3 * r) / ball_volume(r / 4))


def test_deterministic_and_seed_sensitive():
    a = build_lattice(0.3, 1.5, seed=5)
    b = build_lattice(0.3, 1.5, seed=5)
    c = build_lattice(0.3, 1.5, seed=6)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_cardinality_grows_as_r_shrinks():
    coarse = build_lattice(0.4, 2.0, seed=1)
    fine = build_lattice(0.2, 2.0, seed=1)
    assert len(fine) > len(coarse)


def test_multiplicity_invariant_under_relabeling():
    lat = build_lattice(0.3, 1.5, seed=2)
    perm = np.random.default_rng(0).permutation(len(lat))
    shuffled = Lattice(lat.points[perm], lat.r, lat.n_mult,
                       lat.domain_radius, lat.seed)
    assert certify_multiplicity(shuffled) == certify_multiplicity(lat)


def test_validation():
    with pytest.raises(ValueError):
        build_lattice(-0.1, 1.0, seed=0)
    with pytest.raises(ValueError):
        build_lattice(0.1, 0.0, seed=0)
    # a net of about 1e602 candidates is refused before it is built
    with pytest.raises(ProblemTooLarge, match="5.44e\\+602 candidates"):
        build_lattice(1e-300, 1.5, seed=0)
    with pytest.raises(ProblemTooLarge, match="over the 10,000,000 limit"):
        build_lattice(0.1, 3e6, seed=0)
    # at r/8 > R the net, and so the lattice, is the origin alone
    assert build_lattice(200.0, 1.5, seed=0).points.tolist() == [0j]


def sampling_inequality_probe(lat: Lattice, f, k: float) -> dict:
    """Both sides of the norm-vs-samples inequality, as a diagnostic.

    Reports ``norm`` = ||f||, ``sample_norm`` = (sum |f(x_j)|^2)^(1/2),
    ``sobolev_term`` = r^k ||Delta^(k/2) f||, the combination
    ``ratio`` = norm / (r^(d/2) sample_norm + sobolev_term) whose empirical
    supremum plays the constant in the lower inequality, and ``upper_ratio``
    = sample_norm / graph Sobolev norm for the companion upper inequality.
    Constants are estimated across experiments, never assumed.
    """
    if k <= 1.0:
        raise ValueError("order k must exceed d/2 = 1")
    norm = f.norm()
    values = f.evaluate(lat.points)
    sample_norm = float(np.linalg.norm(values))
    if norm == 0.0:
        return {"norm": 0.0, "sample_norm": sample_norm, "sobolev_term": 0.0,
                "ratio": 0.0, "upper_ratio": 0.0}
    sob = apply_multiplier(f, sobolev_multiplier(k / 2.0)).norm()
    d = 2
    rhs = lat.r ** (d / 2.0) * sample_norm + lat.r**k * sob
    hk_norm = math.hypot(norm, sob)
    return {
        "norm": norm,
        "sample_norm": sample_norm,
        "sobolev_term": lat.r**k * sob,
        "ratio": norm / rhs if rhs else math.inf,
        "upper_ratio": sample_norm / hk_norm,
    }


def _band_grid(space):
    """The omega = 2 grid of the sampling-inequality probes."""
    return build_grid(space, 2.0, 48, 64)


def test_probe_zero_function(space):
    lat = build_lattice(0.3, 1.0, seed=0)
    grid = build_grid(space, 2.0, 16, 8)
    zero = BandlimitedFunction(grid, np.zeros((16, 8), complex))
    rep = sampling_inequality_probe(lat, zero, 2)
    assert rep == {"norm": 0.0, "sample_norm": 0.0, "sobolev_term": 0.0,
                   "ratio": 0.0, "upper_ratio": 0.0}


def test_probe_scales_linearly(space):
    lat = build_lattice(0.3, 1.0, seed=0)
    f = synthesize(_band_grid(space), seed=0)
    r1 = sampling_inequality_probe(lat, f, 2)
    f3 = BandlimitedFunction(f.grid, 3.0 * f.values)
    r3 = sampling_inequality_probe(lat, f3, 2)
    assert r3["sample_norm"] == pytest.approx(3 * r1["sample_norm"], rel=1e-12)
    assert r3["norm"] == pytest.approx(3 * r1["norm"], rel=1e-12)
    assert r3["ratio"] == pytest.approx(r1["ratio"], rel=1e-12)


def test_probe_rejects_low_order(space):
    lat = build_lattice(0.3, 1.0, seed=0)
    f = synthesize(_band_grid(space), seed=0)
    with pytest.raises(ValueError):
        sampling_inequality_probe(lat, f, 1.0)


def test_empirical_constant_stable_across_seeds(space):
    """The norm-vs-samples constant calibrated on ten draws bounds ten
    fresh draws, in the dense-lattice regime r = 0.1, omega = 2."""
    lat = build_lattice(0.1, 1.5, seed=0)
    grid = _band_grid(space)

    def ratio(seed):
        f = synthesize(grid, seed=seed)
        rep = sampling_inequality_probe(lat, f, 2)
        return rep["norm"] / (lat.r * rep["sample_norm"])

    c_hat = max(ratio(s) for s in range(10))
    fresh = [ratio(s) for s in range(100, 110)]
    assert max(fresh) <= c_hat
