"""The 3-regular tree embedded in the hyperbolic plane by reflections.

Three disjoint geodesics are spanned by three equal arcs on the ideal
boundary, rotated by 120 degrees; the group generated by the three
reflections acts simply transitively on the orbit of the disk center,
and reduced words over {0, 1, 2} index the orbit points, which form a
3-regular tree.  The module also estimates the tube constant: the
geodesic joining the two ideal limits of a bi-infinite tree path stays
within a bounded distance of the path's vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    Geodesic,
    HPoint,
    Isometry,
    ORIGIN,
    axis_coordinates,
    ball_net,
    canonical_matrix,
    dist,
    dist_arrays,
    ideal_from_disk_angle,
    polar_around_origin,
    reflection_in,
    to_disk,
    to_hyperboloid,
)
from .sampling import BooleanSample, LineSample, RngStream

__all__ = [
    "Word",
    "is_reduced",
    "reduced_words",
    "EmbeddedTree",
    "build_tree",
    "check_separation",
    "estimate_R_prime",
    "RPrimeEstimate",
    "tree_site_reduction",
]

Word = tuple[int, ...]

MAX_DEPTH = 14
# reflection products lose precision: parent-child error 5e-6 at 27, 0.15 at 37
MAX_RADIUS = 27.0


def is_reduced(word: Word) -> bool:
    return all(a != b for a, b in zip(word, word[1:])) and all(w in (0, 1, 2) for w in word)


def reduced_words(depth: int):
    """All reduced words of length 1..depth, breadth first."""
    frontier: list[Word] = [()]
    for _ in range(depth):
        nxt = []
        for w in frontier:
            for letter in (0, 1, 2):
                if not w or w[-1] != letter:
                    nxt.append(w + (letter,))
        yield from nxt
        frontier = nxt


@dataclass(frozen=True)
class EmbeddedTree:
    """Vertices of the reflection orbit up to a word-length cutoff."""

    arc_length: float
    depth: int
    vertices: dict[Word, HPoint] = field(repr=False)
    generator_lines: list[Geodesic]

    def edge_length(self) -> float:
        return dist(ORIGIN, self.vertices[(0,)])

    def words(self) -> list[Word]:
        return list(self.vertices.keys())


def build_tree(arc_length: float, depth: int) -> EmbeddedTree:
    """Compose reflections over reduced words of length <= depth.

    The boundary arc A_j is centered at angle 2 pi j / 3 with the given
    arc length; the generator geodesic L_j joins the endpoints of A_j.
    The deepest vertices lie depth edge lengths from the origin, which
    may not exceed MAX_RADIUS.
    """
    if not 0.0 < arc_length < 2.0 * math.pi / 3.0:
        raise ValueError("arc length must lie in (0, 2 pi / 3)")
    if not 0 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in [0, {MAX_DEPTH}]")
    lines = []
    refls = []
    for j in range(3):
        center = 2.0 * math.pi * j / 3.0
        g = Geodesic(
            ideal_from_disk_angle(center - arc_length / 2.0),
            ideal_from_disk_angle(center + arc_length / 2.0),
        )
        lines.append(g)
        refls.append(reflection_in(g))
    edge = dist(ORIGIN, refls[0].apply(ORIGIN))
    if depth * edge > MAX_RADIUS:
        raise ValueError(f"depth {depth} at arc length {arc_length} reaches {depth * edge:.4g} "
                         f"from the origin, beyond MAX_RADIUS = {MAX_RADIUS:g}")

    vertices: dict[Word, HPoint] = {(): ORIGIN}
    mats: dict[Word, Isometry] = {(): Isometry.identity()}
    for w in reduced_words(depth):
        mats[w] = mats[w[:-1]] @ refls[w[-1]]
        vertices[w] = mats[w].apply(ORIGIN)
    return EmbeddedTree(arc_length, depth, vertices, lines)


def check_separation(tree: EmbeddedTree, word: Word) -> bool:
    """True iff the generator line of the word's first letter separates
    the origin from the word's orbit point."""
    if not word:
        raise ValueError("the empty word has no separating line")
    if not is_reduced(word):
        raise ValueError(f"word {word} is not reduced")
    if word not in tree.vertices:
        raise ValueError(f"word {word} is beyond the tree depth")
    line = tree.generator_lines[word[0]]
    return line.side(ORIGIN) * line.side(tree.vertices[word]) < 0.0


@dataclass(frozen=True)
class RPrimeEstimate:
    """Empirical tube constants of the embedded tree.

    ``line_to_vertices`` is the largest distance from a sampled point
    of a limit geodesic to the nearest vertex of its path (the tube
    constant); ``vertex_to_line`` is the largest distance from a path
    vertex to its limit geodesic.
    """

    line_to_vertices: float
    vertex_to_line: float


def _random_path_words(tree: EmbeddedTree, gen) -> tuple[list[Word], Word, Word]:
    first = gen.choice(3, size=2, replace=False)
    halves = []
    for head in first:
        w: Word = (int(head),)
        while len(w) < tree.depth:
            step = int(gen.integers(0, 2))
            options = [k for k in (0, 1, 2) if k != w[-1]]
            w = w + (options[step],)
        halves.append(w)
    left, right = halves
    path = [left[: k + 1] for k in range(len(left))][::-1] + [()] + [
        right[: k + 1] for k in range(len(right))
    ]
    return path, left, right


def estimate_R_prime(tree: EmbeddedTree, n_paths: int, rng: RngStream) -> RPrimeEstimate:
    """Sample bi-infinite non-backtracking paths through the origin and
    measure how far their limit geodesics stray from the vertices.

    The limit points are approximated by the Euclidean normalization of
    the deepest vertices' disk coordinates, which converges because
    disk geodesics approach their ideal endpoints in the Euclidean
    metric.  Each limit geodesic is read in the coordinates where it is
    the imaginary axis, through ``canonical_matrix`` and its inverse.
    """
    if tree.depth < 2:
        raise ValueError("need depth >= 2 to walk paths")
    gen = rng.generator()
    worst_line = 0.0
    worst_vertex = 0.0
    for _ in range(n_paths):
        path, left, right = _random_path_words(tree, gen)
        ends = [to_disk(tree.vertices[w]) for w in (left, right)]
        limit = Geodesic(*(ideal_from_disk_angle(math.atan2(y, x)) for x, y in ends))
        m = canonical_matrix(limit)
        verts = np.asarray([tree.vertices[w].as_complex() for w in path])
        feet, yoff = axis_coordinates(m.inverse().apply_array(verts))
        worst_vertex = max(worst_vertex, float(np.abs(yoff).max()))
        ts = np.arange(feet.min(), feet.max() + 0.05, 0.05)
        line_pts = m.apply_array(1j * np.exp(ts))
        dmat = dist_arrays(line_pts[:, None], verts[None, :])
        worst_line = max(worst_line, float(dmat.min(axis=1).max()))
    return RPrimeEstimate(worst_line, worst_vertex)


def tree_site_reduction(
    tree: EmbeddedTree,
    sample: BooleanSample | LineSample,
    model: str,
    r_prime: float,
) -> set[Word]:
    """Words whose vertex ball B(v, r_prime) lies inside the model's set.

    Vacant: no process point within R + r_prime of the vertex.
    Occupied: a dense net of the ball (mesh 0.05) must sit within
    R - 0.05 of process points, a conservative sufficient test.
    Lines: no sampled line passes within r_prime of the vertex.
    """
    words = tree.words()
    verts = np.asarray([tree.vertices[w].as_complex() for w in words])
    reach = float(np.arccosh((np.abs(verts) ** 2 + 1.0) / (2.0 * verts.imag)).max())

    if model == "lines":
        if not isinstance(sample, LineSample):
            raise TypeError("lines model needs a LineSample")
        sample.require_window(reach + r_prime, "tree site reduction")
        sinh_d = np.abs(sample.sides(to_hyperboloid(verts)))
        open_mask = np.all(sinh_d >= math.sinh(r_prime), axis=1)
        return {w for w, ok in zip(words, open_mask) if ok}

    if not isinstance(sample, BooleanSample):
        raise TypeError("point models need a BooleanSample")
    R = sample.params.radius
    sample.require_window(reach + r_prime + R, "tree site reduction")
    if model == "vacant":
        dmat = dist_arrays(verts[:, None], sample.points[None, :])
        open_mask = np.all(dmat >= R + r_prime, axis=1)
        return {w for w, ok in zip(words, open_mask) if ok}
    if model != "occupied":
        raise ValueError("model must be vacant, occupied, or lines")
    mesh = 0.05
    net = polar_around_origin(*ball_net(r_prime, mesh, rim=True))
    out = set()
    for w_word, v in zip(words, verts):
        # the net lies in B(v, r_prime), so a point at least R + r_prime
        # from v keeps more than R - mesh from every net point
        pts = sample.points[dist_arrays(v, sample.points) < R + r_prime]
        # the net of B(v, r_prime): the polar net around (0, 1) moved to v
        dmat = dist_arrays((v.imag * net + v.real)[:, None], pts[None, :])
        if len(pts) and bool((dmat.min(axis=1) <= R - mesh).all()):
            out.add(w_word)
    return out
