"""Reference forms of the tube certificates that the tests compare
against: Fermi coordinates by projecting every point onto every
segment, rays decided one sample at a time, with every pair of their
arcs read by ``frame_fermi``, the lines that cross a grid ray drawn in
one block with arccos arcs,
detect-line's candidate pairs searched among each sample's surviving
directions and its chords tried one at a time, each measured against
every point of its sample in the frame of ``segment_frame`` at one end,
its ends and the points made through the upper half-plane
(``polar_around_origin``, then ``to_hyperboloid``) rather than by
``polar_hyperboloid``, the lines
sandwich's events decided one trial at a time, the sandwich's grid with
each cell's nearest point to an end centre measured in the upper
half-plane, its column cut as zero-length segments through
``_reaches``, and finite nets of the tube's end balls: segments joining
every point of one to every point of the other (Q), and for lines a
point of each on the same side of every line (A and Q).  A net holds
only some of the segments that the events quantify over, so Q on a
net accepts every realization that Q* accepts, and more."""

import math

import numpy as np

from hyperc import percolation
from hyperc.geometry import (
    dist_arrays,
    frame_fermi,
    geodesic_normal,
    minkowski,
    polar_around_origin,
    polar_frame,
    segment_point_distance,
    to_hyperboloid,
)
from hyperc.percolation import (
    LineDetection,
    _chord_distance,
    _grid_runs,
    _reaches,
)
from hyperc.sampling import BooleanSample, LineSample, ModelParams, sample_lines, sample_points

from axis_oracles import axis_point


def projection_segment_point_distance(p, q, w):
    """(foot, perp) of the points w relative to the segments [p, q], as
    ``segment_point_distance`` returns them: each point is projected to
    the segment's geodesic, normalized onto the hyperboloid, and its foot
    read from its distances to p and q."""
    p, q, w = np.atleast_2d(p), np.atleast_2d(q), np.atleast_2d(w)
    flip = np.asarray([1.0, 1.0, -1.0])
    n = geodesic_normal(p, q)
    c = np.einsum("sk,nk->sn", n * flip, w)
    perp = np.arcsinh(np.abs(c))
    w_plane = w[None, :, :] - c[:, :, None] * n[:, None, :]
    norm2 = -minkowski(w_plane, w_plane)
    f = w_plane / np.sqrt(np.maximum(norm2, 1e-300))[:, :, None]
    length = np.arccosh(np.maximum(-minkowski(p, q), 1.0))
    fp = -np.einsum("snk,sk->sn", f, p * flip)  # cosh d(f, p)
    fq = -np.einsum("snk,sk->sn", f, q * flip)
    sinh_l = np.maximum(np.sinh(length), 1e-300)[:, None]
    foot = np.arcsinh((np.cosh(length)[:, None] * fp - fq) / sinh_l)
    return foot, perp


def boolean_ray_survivors(sample: BooleanSample, r: float, n_dir: int, model: str) -> np.ndarray:
    """Directions whose ray of length r from (0, 1) lies in the set, for
    one sample: each point measured on the grid directions of its arc
    and the next one beyond each end, every direction for t <= R, and
    every such pair passed to ``_reaches``, with no filter on its
    normal product."""
    R = sample.params.radius
    sample.require_window(r + R, "ray survival")
    h = 2.0 * math.pi / n_dir
    thetas = 2.0 * math.pi * np.arange(n_dir) / n_dir
    t, psi = sample.t, sample.psi
    beta = np.arcsin(math.sinh(R) / np.maximum(np.sinh(t), math.sinh(R)))
    lo = np.floor((psi - beta) / h).astype(np.int64)
    hi = np.ceil((psi + beta) / h).astype(np.int64)
    lo[t <= R + 1e-9], hi[t <= R + 1e-9] = 0, n_dir - 1
    j, k = _grid_runs(lo, hi, n_dir)
    foot, offset = frame_fermi(*polar_frame(t[j], psi[j] - thetas[k]))
    return _reaches(model, k, foot, offset, R, n_dir) >= r


def line_ray_survivors(sample: LineSample, r: float, n_dir: int) -> np.ndarray:
    """Directions whose radial segment of length r misses every line of
    one sample."""
    sample.require_window(r, "ray survival")
    h = 2.0 * math.pi / n_dir
    mask = sample.foot_dist < r
    beta = np.arccos(np.clip(np.tanh(sample.foot_dist[mask]) / math.tanh(r), -1.0, 1.0))
    lo = np.ceil((sample.foot_dir[mask] - beta) / h).astype(np.int64)
    hi = np.floor((sample.foot_dir[mask] + beta) / h).astype(np.int64)
    alive = np.ones(n_dir, dtype=bool)
    alive[_grid_runs(lo, hi, n_dir)[1]] = False
    return alive


def grid_lines(lam: float, r: float, n_dir: int, samples: int, gen) -> list[LineSample]:
    """samples realizations of the lines that cross a ray of length r on
    the grid of n_dir directions, from the uniforms that
    ``surviving_directions`` draws, block by block of samples expecting
    at most LINE_BLOCK envelope lines together: each line's foot
    distance p by inverting the envelope's distribution, proportional
    to min(h cosh p, pi), kept with probability min(h, 2 beta) cosh p /
    min(h cosh p, pi), beta = arccos(tanh p / tanh r), and its foot
    direction uniform on the arcs within beta of the grid angles."""
    h = 2.0 * math.pi / n_dir
    knee = min(math.acosh(n_dir / 2.0), r)
    mass = math.sinh(knee) + n_dir / 2.0 * (r - knee)
    block = max(1, int(percolation.LINE_BLOCK // max(lam * math.pi * mass, 1.0)))
    out = []
    for size in [min(block, samples - lo) for lo in range(0, samples, block)]:
        counts = gen.poisson(lam * math.pi * mass, size)
        x = gen.random(counts.sum()) * mass
        p = np.asarray([math.asinh(u) if u < math.sinh(knee) else knee + (u - math.sinh(knee))
                        / (n_dir / 2.0) for u in x])
        beta = np.arccos(np.tanh(p) / math.tanh(r))
        envelope = np.minimum(h * np.cosh(p), math.pi)
        keep = gen.random(len(p)) * envelope < np.minimum(h, 2.0 * beta) * np.cosh(p)
        p, beta = p[keep], beta[keep]
        k, v = gen.integers(n_dir, size=len(p)), gen.random(len(p))
        phi = np.where(2.0 * beta >= h, 2.0 * math.pi * v, k * h + beta * (2.0 * v - 1.0))
        owner = np.repeat(np.arange(size), counts)[keep]
        out += [LineSample(lam, r, p[owner == i], phi[owner == i]) for i in range(size)]
    return out


def block_samples(model: str, params: ModelParams, rho: float, samples: int, gen) -> list:
    """The samples realizations of the points of B(o, rho), or of the lines
    meeting it, that rays, detect-line and the sandwich draw from gen,
    one sample at a time: blocks of m samples that together expect at
    most LINE_BLOCK points or lines, each drawn at m times the intensity
    and cut into consecutive runs by a multinomial draw of their counts."""
    lam = params.intensity
    mean = lam * math.pi * (math.sinh(rho) if model == "lines" else 2.0 * (math.cosh(rho) - 1.0))
    block = max(1, int(percolation.LINE_BLOCK // max(mean, 1.0)))
    out = []
    for lo in range(0, samples, block):
        m = min(block, samples - lo)
        if model == "lines":
            drawn = sample_lines(m * lam, rho, gen)
            a, b = drawn.foot_dist, drawn.foot_dir
        else:
            drawn = sample_points(ModelParams(m * lam, params.radius), rho, gen)
            a, b = drawn.t, drawn.psi
        ends = np.cumsum([0, *gen.multinomial(len(a), [1.0 / m] * m)])
        out += [LineSample(lam, rho, a[i:j], b[i:j]) if model == "lines"
                else BooleanSample(params, rho, a[i:j], b[i:j]) for i, j in zip(ends, ends[1:])]
    return out


def group_of(samples: list):
    """The samples as one group (n, owner, sample) of the tube kernels:
    their number, each element's sample index and one sample holding all
    their points or lines."""
    owner = np.repeat(np.arange(len(samples)), [len(sample) for sample in samples])
    first = samples[0]
    if isinstance(first, LineSample):
        joined = LineSample(first.intensity, first.window_radius,
                            *(np.concatenate([getattr(x, f) for x in samples])
                              for f in ("foot_dist", "foot_dir")))
    else:
        joined = BooleanSample(first.params, first.window_radius,
                               *(np.concatenate([getattr(x, f) for x in samples])
                                 for f in ("t", "psi")))
    return len(samples), owner, joined


def ray_samples(model: str, params: ModelParams, r: float, n_dir: int, samples: int, gen):
    """The samples realizations that ``surviving_directions`` draws from
    gen: the points within R of B(o, r) (``block_samples``), or the lines
    of ``grid_lines``."""
    if model == "lines":
        return grid_lines(params.intensity, r, n_dir, samples, gen)
    return block_samples(model, params, r + params.radius, samples, gen)


def sample_rays(model: str, sample, r: float, n_dir: int) -> np.ndarray:
    """The mask of the directions whose ray survives in sample, decided on
    its own."""
    if model == "lines":
        return line_ray_survivors(sample, r, n_dir)
    return boolean_ray_survivors(sample, r, n_dir, model)


def antipodal_pairs(alive: np.ndarray, r: float, s: float):
    """The candidate pairs of one sample, searched among its surviving
    directions: pairs i < j of alive grid directions within 2.5 steps of
    antipodal whose chord at distance r passes within s of (0, 1), as two
    arrays, closest to antipodal first, ties in order of (i, j)."""
    n = len(alive)
    thetas = 2.0 * math.pi * np.arange(n) / n
    idx = np.flatnonzero(alive)
    owner, j = _grid_runs(idx + n // 2 - 3, idx + n // 2 + 3, n)
    i = idx[owner]
    delta = np.mod(thetas[j] - thetas[i], 2.0 * math.pi)
    miss = np.abs(delta - math.pi)
    keep = alive[j] & (j > i) & (miss <= 2.5 * (2.0 * math.pi / n))
    keep &= _chord_distance(r, delta) < s
    order = np.lexsort((j[keep], i[keep], miss[keep]))
    return i[keep][order], j[keep][order]


def full_chord_detection(model: str, params: ModelParams, s: float, r: float, sample,
                         n_dir: int = 360) -> LineDetection:
    """detect-line for one sample (``sample_rays``), deciding each
    candidate chord against every point of the sample (lines: against
    every line)."""
    alive = sample_rays(model, sample, r, n_dir)
    if np.count_nonzero(alive) >= 2:
        for i, j in zip(*antipodal_pairs(alive, r, s)):
            ends = 2.0 * math.pi * np.asarray([i, j]) / n_dir
            pq = to_hyperboloid(polar_around_origin(np.full(2, r), ends))
            if model == "lines":
                side = sample.sides(pq)
                inside = not np.any(side[0] * side[1] < 0.0)
            else:
                inside = net_contained(pq[:1], pq[1:], to_hyperboloid(sample.points),
                                       params.radius, model)
            if inside:
                return LineDetection(True, (int(i), int(j)))
    return LineDetection(False, None)


def ball_net(radius: float, mesh: float):
    """Polar coordinates (t, psi) around (0, 1) of a net of B(o, radius)
    with spacing at most mesh: the centre and the rings at k mesh <
    radius, each ring of at least four equally spaced points."""
    radii = [k * mesh for k in range(1, int(radius / mesh) + 2) if k * mesh < radius]
    sizes = [max(4, int(math.ceil(2.0 * math.pi * math.sinh(rad) / mesh))) for rad in radii]
    t = np.concatenate([[0.0]] + [np.full(m, rad) for m, rad in zip(sizes, radii)])
    psi = np.concatenate([[0.0]] + [2.0 * math.pi * np.arange(m) / m for m in sizes])
    return t, psi


def end_nets(half_d: float, s: float, mesh: float):
    """The nets (``ball_net``) of the balls of radius s around i e^-half_d
    and i e^half_d, complex UHP coordinates, centres first."""
    net = polar_around_origin(*ball_net(s, mesh))
    return math.exp(-half_d) * net, math.exp(half_d) * net


def q_net(half_d: float, s: float, mesh: float | None = None):
    """The Q net, as hyperboloid segments (seg_p, seg_q): every point of
    the net of B(x, s) joined to every point of the net of B(y, s), at
    mesh 0.999 s / 4 unless given, whose outer ring lies at 0.999 s."""
    nets = end_nets(half_d, s, 0.999 * s / 4.0 if mesh is None else mesh)
    hx, hy = (to_hyperboloid(net) for net in nets)
    return np.repeat(hx, len(hy), axis=0), np.tile(hy, (len(hx), 1))


def lines_tube_events(sample: LineSample, half_d: float, s: float):
    """(A, f, Q) of one line realization for the tube between i e^-half_d
    and i e^half_d, line by line from the sides at the end centres: f
    fails on a line with them on different sides (0 counting as
    negative), Q on a line within s of either centre or between them, A
    on a line more than s from both and between them."""
    sx, sy = sample.sides(to_hyperboloid(np.asarray([1j * math.exp(-half_d),
                                                     1j * math.exp(half_d)])))
    a_ok = f_ok = q_ok = True
    for a, b in zip(sx.tolist(), sy.tolist()):
        far = min(abs(a), abs(b)) > math.sinh(s)
        f_ok &= (a > 0.0) == (b > 0.0)
        q_ok &= a * b > 0.0 and min(abs(a), abs(b)) >= math.sinh(s)
        a_ok &= not (a * b < 0.0 and far)
    return a_ok, f_ok, q_ok


def lines_net_events(sample: LineSample, net_x: np.ndarray, net_y: np.ndarray):
    """(A, f, Q) of one line realization on the end nets net_x and net_y
    (hyperboloid vectors), which start with the end centres: points are
    joined off the lines iff their rows of signs are equal."""
    pos_x, pos_y = sample.sides(net_x) > 0.0, sample.sides(net_y) > 0.0
    f_ok = bool(np.array_equal(pos_x[0], pos_y[0]))
    both = np.concatenate([pos_x, pos_y])
    q_ok = bool(np.all(both.all(axis=0) | ~both.any(axis=0)))
    a_ok = f_ok or bool({row.tobytes() for row in pos_x} & {row.tobytes() for row in pos_y})
    return a_ok, f_ok, q_ok


def tube_grid(half_d: float, s: float, slack: float = 0.0):
    """The sandwich's flood-fill grid, (feet, offs, in_region, start_cells,
    end_cells), with each cell's nearest point to each end centre found
    by clamping the centre's foot and offset into the cell and measured
    by ``dist_arrays`` in the upper half-plane, on the rows within 2s of
    its foot: the cells within s + slack of an end centre, and for the
    region also every cell that reaches the feet [-half_d, half_d]."""
    mesh = s / 8.0
    n_t = int(math.ceil((2.0 * half_d + 2.0 * s) / mesh)) + 1
    n_v = 2 * int(math.ceil(s / mesh)) + 1
    feet, offs = np.linspace(-half_d - s, half_d + s, n_t), np.linspace(-s, s, n_v)
    a, b = (feet[1] - feet[0]) / 2.0, (offs[1] - offs[0]) / 2.0
    v_near = np.clip(0.0, offs - b, offs + b)
    balls = []
    for c in (-half_d, half_d):
        # a row farther than 2s + a from the end's foot keeps s from it
        rows = np.flatnonzero(np.abs(feet - c) <= 2.0 * s + a)
        t_near = np.clip(c, feet[rows] - a, feet[rows] + a)[:, None]
        balls.append(np.zeros((n_t, n_v), dtype=bool))
        near = axis_point(t_near, v_near)
        balls[-1][rows] = dist_arrays(near, 1j * math.exp(c)) <= s + slack
    in_region = (np.abs(feet) - a <= half_d)[:, None] | balls[0] | balls[1]
    return feet, offs, in_region, balls[0], balls[1]


def reaches_cut_columns(model: str, trial, u, y, n: int, feet, R: float, w: float) -> np.ndarray:
    """The sandwich's column cut, each trial's column over feet[c] passed
    to ``_reaches`` as the zero-length segment trial * len(feet) + c with
    balls of radius R - w (vacant) or R + w (occupied): a negative reach
    puts the column's axis point strictly within R - w of a point, or at
    least R + w from every point."""
    grow = w if model == "vacant" else -w
    cols = len(feet)
    seg = (trial[:, None] * cols + np.arange(cols)).ravel()
    foot = (u[:, None] - feet).ravel()
    reach = _reaches(model, seg, foot, np.repeat(y, cols), R - grow, n * cols)
    return (reach < 0.0).reshape(n, cols).any(axis=1)


def net_contained(seg_p, seg_q, w, R: float, model: str) -> bool:
    """Whether every segment [seg_p[k], seg_q[k]] lies in the set of the
    balls of radius R around the points w (all hyperboloid vectors), all
    segments measured in one pass."""
    foot, perp = segment_point_distance(seg_p, seg_q, w)
    lengths = np.arccosh(np.maximum(-minkowski(seg_p, seg_q), 1.0))
    seg = np.repeat(np.arange(len(seg_p)), len(w))
    return bool(np.all(_reaches(model, seg, foot.ravel(), perp.ravel(), R, len(seg_p)) >= lengths))
