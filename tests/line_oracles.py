"""Reference forms of the lines that the tests compare against: each
sampled line as the UHP geodesic through its ideal ends, the distance
to such a geodesic through the Mobius frame that lays the imaginary
axis on it, the UHP semicircle side test, and the limit geodesic of a
path of the reflection tree with the distances between it and the
path's vertices."""

import math

import numpy as np

from hyperc.geometry import HPoint, axis_coordinates, to_disk
from hyperc.sampling import LineSample
from hyperc.treecover import EmbeddedTree, Word

from mobius import Geodesic, Isometry, ideal_from_disk_angle


def canonical_matrix(g: Geodesic) -> Isometry:
    """The isometry that takes the imaginary axis onto g, with 0 -> a,
    INF -> b and i -> the summit of the semicircle (or (a, 1) for
    vertical lines)."""
    if g.vertical:
        return Isometry(1.0, g.a, 0.0, 1.0)
    return Isometry(g.b, g.a, 1.0, 1.0)


def inverse(m: Isometry) -> Isometry:
    """The inverse isometry: the adjugate matrix, which acts alike."""
    return Isometry(m.d, -m.b, -m.c, m.a)


def geodesic(p: float, phi: float) -> Geodesic:
    """The line at foot distance p and foot direction phi from (0, 1): its
    ideal ends lie at the disk angles phi -+ arccos(tanh p)."""
    delta = math.acos(math.tanh(p))
    return Geodesic(ideal_from_disk_angle(phi - delta), ideal_from_disk_angle(phi + delta))


def dist_to_geodesic(p: HPoint, g: Geodesic):
    """Distance from p to g and the foot parameter in g's canonical
    frame: p is moved by the inverse of ``canonical_matrix(g)``, which
    takes g onto the imaginary axis, and read in axis coordinates."""
    w = inverse(canonical_matrix(g)).apply(p).as_complex()
    u, yoff = axis_coordinates(np.asarray([w]))
    return abs(float(yoff[0])), float(u[0])


def semicircle_sides(sample: LineSample, z: complex) -> np.ndarray:
    """UHP oracle for ``LineSample.sides`` at the point z: the semicircle
    side test (x - c)^2 + y^2 - r^2 on each line's ideal ends, or x - a
    for a vertical line.  Opposite signs mean the line separates two
    points."""
    delta = np.arccos(np.tanh(sample.foot_dist))
    t = np.tan(0.5 * np.mod(sample.foot_dir + np.stack([-delta, delta]), 2.0 * math.pi))
    with np.errstate(divide="ignore"):
        a, b = np.sort(np.where(t == 0.0, np.inf, -1.0 / t), axis=0)
    c, rad = 0.5 * (a + b), 0.5 * (b - a)
    with np.errstate(invalid="ignore"):
        circ = (z.real - c) ** 2 + z.imag**2 - rad * rad
    return np.where(np.isinf(b), z.real - a, circ)


def path_tube_distances(tree: EmbeddedTree, left: Word, right: Word, step: float):
    """(vertex_to_line, line_to_vertices) of the tree path that runs from
    the vertex of the word left in to the origin and out to the vertex
    of right: the largest distance from a path vertex to the path's
    limit geodesic, and the largest distance from a point of that
    geodesic, between the feet of the end vertices, to the nearest path
    vertex.

    The limit points are approximated by the Euclidean direction of the
    end vertices' disk coordinates, which converges as the words grow
    because disk geodesics approach their ideal ends in the Euclidean
    metric.  The geodesic is read in the frame where it is the imaginary
    axis, and the points of it are taken every step along it, so the
    second distance is short of its sup over the segment by at most
    step / 2."""
    ends = [to_disk(tree.vertices[w].as_complex()) for w in (left, right)]
    limit = Geodesic(*(ideal_from_disk_angle(math.atan2(w.imag, w.real)) for w in ends))
    path = [left[:k] for k in range(len(left), 0, -1)] + [()] + [
        right[:k] for k in range(1, len(right) + 1)]
    frame = inverse(canonical_matrix(limit))
    feet, offsets = axis_coordinates(
        frame.apply_array(np.asarray([tree.vertices[w].as_complex() for w in path])))
    ts = np.arange(feet.min(), feet.max() + step, step)
    # cosh d((0, e^t), v) = cosh(t - foot) cosh(offset) for the vertex v
    # at foot and offset from the axis
    cosh_d = np.cosh(ts[:, None] - feet[None, :]) * np.cosh(offsets[None, :])
    return float(np.abs(offsets).max()), float(np.arccosh(cosh_d.min(axis=1).max()))
