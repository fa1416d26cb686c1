"""Reference forms of the tube certificates that the tests compare
against: Fermi coordinates by projecting every point onto every
segment, rays decided one sample at a time, each drawn next from one
generator, with every pair of their arcs read by ``frame_fermi``,
detect-line's candidate pairs searched among each sample's surviving
directions and its chords tried one at a time, each measured against
every point of its sample in the frame of ``segment_frame`` at one end,
its ends and the points made through the upper half-plane
(``polar_around_origin``, then ``to_hyperboloid``) rather than by
``polar_hyperboloid``, the lines
sandwich's events decided one trial at a time, the sandwich's grid with
an arccosh per cell, its column cut as zero-length segments through
``_reaches``, and its Q net measured in one pass."""

import math

import numpy as np

from hyperc.geometry import (
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
    _net_contained,
    _reaches,
)
from hyperc.sampling import BooleanSample, LineSample, ModelParams, sample_lines, sample_points


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


def sample_and_rays(model: str, params: ModelParams, r: float, n_dir: int, gen):
    """The next sample of gen, drawn as ``surviving_directions`` draws each
    sample from its stream's generator, and its mask of surviving
    directions, decided on its own."""
    if model == "lines":
        sample = sample_lines(params.intensity, r, gen)
        return sample, line_ray_survivors(sample, r, n_dir)
    sample = sample_points(params, r + params.radius, gen)
    return sample, boolean_ray_survivors(sample, r, n_dir, model)


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


def full_chord_detection(model: str, params: ModelParams, s: float, r: float, gen,
                         n_dir: int = 360) -> LineDetection:
    """detect-line for the next sample of gen (``sample_and_rays``),
    deciding each candidate chord against every point of the sample
    (lines: against every line)."""
    sample, alive = sample_and_rays(model, params, r, n_dir, gen)
    n_surviving = int(np.count_nonzero(alive))
    if n_surviving >= 2:
        for i, j in zip(*antipodal_pairs(alive, r, s)):
            ends = 2.0 * math.pi * np.asarray([i, j]) / n_dir
            pq = to_hyperboloid(polar_around_origin(np.full(2, r), ends))
            if model == "lines":
                side = sample.sides(pq)
                inside = not np.any(side[0] * side[1] < 0.0)
            else:
                inside = _net_contained(pq[:1], pq[1:], to_hyperboloid(sample.points),
                                        params.radius, model)
            if inside:
                return LineDetection(True, (int(i), int(j)), n_surviving)
    return LineDetection(False, None, n_surviving)


def lines_tube_events(sample: LineSample, net_x: np.ndarray, net_y: np.ndarray):
    """(A, f, Q) of one line realization for the tube whose end nets
    net_x and net_y (hyperboloid vectors) start with the end centres:
    points are joined off the lines iff their rows of signs are equal."""
    pos_x, pos_y = sample.sides(net_x) > 0.0, sample.sides(net_y) > 0.0
    f_ok = bool(np.array_equal(pos_x[0], pos_y[0]))
    both = np.concatenate([pos_x, pos_y])
    q_ok = bool(np.all(both.all(axis=0) | ~both.any(axis=0)))
    a_ok = f_ok or bool({row.tobytes() for row in pos_x} & {row.tobytes() for row in pos_y})
    return a_ok, f_ok, q_ok


def tube_grid(half_d: float, s: float):
    """The sandwich's flood-fill grid, (feet, offs, in_region, start_cells,
    end_cells), with the distance of every cell to each end centre taken
    by an arccosh."""
    mesh = s / 8.0
    n_t = int(math.ceil((2.0 * half_d + 2.0 * s) / mesh)) + 1
    n_v = 2 * int(math.ceil(s / mesh)) + 1
    feet, offs = np.linspace(-half_d - s, half_d + s, n_t), np.linspace(-s, s, n_v)
    tt = feet[:, None]
    d_x = np.arccosh(np.maximum(np.cosh(tt + half_d) * np.cosh(offs), 1.0))
    d_y = np.arccosh(np.maximum(np.cosh(tt - half_d) * np.cosh(offs), 1.0))
    in_region = np.where(tt < -half_d, d_x <= s, np.where(tt > half_d, d_y <= s, True))
    return feet, offs, in_region, in_region & (d_x < s), in_region & (d_y < s)


def reaches_cut_columns(model: str, trial, u, y, n: int, feet, R: float, s: float) -> np.ndarray:
    """The sandwich's column cut, each trial's column over feet[c] passed
    to ``_reaches`` as the zero-length segment trial * len(feet) + c with
    balls of radius R - s (vacant) or R + s (occupied): a negative reach
    puts the column's axis point strictly within R - s of a point, or at
    least R + s from every point."""
    grow = s if model == "vacant" else -s
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
