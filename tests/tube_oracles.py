"""Reference forms of the tube certificates that the tests compare
against: Fermi coordinates by projecting every point onto every
segment, rays decided one sample at a time with every pair of their
arcs read by ``frame_fermi``, the chord of detect-line measured against
every point of its sample, its ends and the points made through the
upper half-plane (``polar_around_origin``, then ``to_hyperboloid``)
rather than by ``polar_hyperboloid``, and the lines sandwich's events
decided one trial at a time."""

import math

import numpy as np

from hyperc.geometry import (
    frame_fermi,
    geodesic_normal,
    minkowski,
    polar_around_origin,
    polar_frame,
    to_hyperboloid,
)
from hyperc.percolation import LineDetection, _antipodal_pairs, _grid_runs, _net_contained, _reaches
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


def sample_and_rays(model: str, params: ModelParams, r: float, n_dir: int, rng):
    """One stream's sample, drawn as ``surviving_directions`` draws it,
    and its mask of surviving directions, decided on its own."""
    gen = rng.generator()
    if model == "lines":
        sample = sample_lines(params.intensity, r, gen)
        return sample, line_ray_survivors(sample, r, n_dir)
    sample = sample_points(params, r + params.radius, gen)
    return sample, boolean_ray_survivors(sample, r, n_dir, model)


def full_chord_detection(model: str, params: ModelParams, s: float, r: float, rng,
                         n_dir: int = 360) -> LineDetection:
    """detect-line for one stream, deciding each candidate chord against
    every point of the sample (lines: against every line)."""
    sample, alive = sample_and_rays(model, params, r, n_dir, rng)
    n_surviving = int(np.count_nonzero(alive))
    if n_surviving >= 2:
        for i, j in zip(*_antipodal_pairs(alive, r, s)):
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
