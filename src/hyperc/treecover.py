"""The 3-regular tree embedded in the hyperbolic plane by reflections.

Three disjoint geodesics L_0, L_1, L_2 are spanned by three equal arcs
on the ideal boundary, rotated by 120 degrees.  The group generated by
the reflections in them acts simply transitively on the orbit of the
disk center, and reduced words over {0, 1, 2} index the orbit points,
which form a 3-regular tree.  In the upper half-plane each L_j is a
semicircle, read off its hyperboloid normal, and each vertex is one
circle inversion of the vertex of its word's tail.  The geodesic joining
the two ideal limits of a bi-infinite tree path stays near the path's
vertices; the module gives the two tube constants of that statement in
closed form, from the same normals, with no vertex, depth or sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from numbers import Integral

import numpy as np

from .geometry import HPoint, ORIGIN, geodesic_normal, line_normal, minkowski

__all__ = [
    "Word",
    "is_reduced",
    "reduced_words",
    "EmbeddedTree",
    "build_tree",
    "check_separation",
    "tube_constants",
]

Word = tuple[int, ...]

MAX_DEPTH = 14
# the inversions lose precision far out: the deepest vertices' worst
# parent-child error over depths 3..16 is 4.4e-7 at 27, 3.5e-3 at 37
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


def _check_arc(arc_length: float) -> None:
    if not 0.0 < arc_length < 2.0 * math.pi / 3.0:
        raise ValueError("arc length must lie in (0, 2 pi / 3)")


def _foot_normals(arc_length: float) -> np.ndarray:
    """Unit normals of L_0, L_1, L_2, shape (3, 3): L_j's foot lies
    p = artanh cos(arc/2) = -log tan(arc/4) from (0, 1) in the direction
    2 pi j / 3.  The second form keeps full precision as the arc shrinks,
    where cos(arc/2) rounds near 1 (the first is 2e-11 off at arc 1e-3)."""
    p = -math.log(math.tan(arc_length / 4.0))
    return line_normal(np.full(3, p), 2.0 * math.pi * np.arange(3) / 3.0)


@cache
def _mirrors(arc_length: float) -> tuple[tuple[float, float], ...]:
    """(c, r^2) of each L_j as the UHP semicircle (x - c)^2 + y^2 = r^2.

    A point lies on the line of normal n when <n, X> = 0; on the
    hyperboloid vector X of z = x + iy this reads (n_1 - n_2)|z|^2 +
    2 n_0 x - (n_1 + n_2) = 0 in the vector's [X1, X2, X0] order.  No
    L_j is vertical, as no arc end sits at the disk angle 0."""
    n = _foot_normals(arc_length)
    c = -n[:, 0] / (n[:, 1] - n[:, 2])
    r2 = c * c + (n[:, 1] + n[:, 2]) / (n[:, 1] - n[:, 2])
    return tuple(zip(c.tolist(), r2.tolist()))


@dataclass(frozen=True)
class EmbeddedTree:
    """Vertices of the reflection orbit up to a word-length cutoff."""

    arc_length: float
    depth: int
    vertices: dict[Word, HPoint] = field(repr=False)

    def edge_length(self) -> float:
        """d(o, r_0 o): L_0 is the semicircle |z| = cot(arc/4), so
        r_0 o = i cot^2(arc/4)."""
        return -2.0 * math.log(math.tan(self.arc_length / 4.0))


def build_tree(arc_length: float, depth: int) -> EmbeddedTree:
    """The orbit points of the reduced words of length <= depth.

    The boundary arc A_j is centered at angle 2 pi j / 3 with the given
    arc length; the generator geodesic L_j joins the endpoints of A_j.
    The word w is the vertex r_{w_0} r_{w_1} ... o, that is the inversion
    z -> c + r^2 / (conj(z) - c) in the semicircle of L_{w_0} applied to
    the vertex of w's tail, which the breadth-first words build first.
    The deepest vertices lie depth edge lengths from the origin, which
    may not exceed MAX_RADIUS.
    """
    _check_arc(arc_length)
    if not isinstance(depth, Integral) or not 0 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be an integer in [0, {MAX_DEPTH}]")
    vertices: dict[Word, HPoint] = {(): ORIGIN}
    tree = EmbeddedTree(arc_length, depth, vertices)
    edge = tree.edge_length()
    if depth * edge > MAX_RADIUS:
        raise ValueError(f"depth {depth} at arc length {arc_length} reaches {depth * edge:.4g} "
                         f"from the origin, beyond MAX_RADIUS = {MAX_RADIUS:g}")
    mirrors = _mirrors(arc_length)
    for w in reduced_words(depth):
        c, r2 = mirrors[w[0]]
        tail = vertices[w[1:]]
        v = c + r2 / complex(tail.x - c, -tail.y)
        vertices[w] = HPoint(v.real, v.imag)
    return tree


def check_separation(tree: EmbeddedTree, word: Word) -> bool:
    """True iff the generator line of the word's first letter separates
    the origin from the word's orbit point: (x - c)^2 + y^2 - r^2 has
    opposite signs at the two points on L's semicircle."""
    if not word:
        raise ValueError("the empty word has no separating line")
    if not is_reduced(word):
        raise ValueError(f"word {word} is not reduced")
    if word not in tree.vertices:
        raise ValueError(f"word {word} is beyond the tree depth")
    c, r2 = _mirrors(tree.arc_length)[word[0]]
    o, v = ORIGIN, tree.vertices[word]
    return ((o.x - c) ** 2 + o.y**2 - r2) * ((v.x - c) ** 2 + v.y**2 - r2) < 0.0


def tube_constants(arc_length: float) -> tuple[float, float]:
    """The tube constants (vertex_to_line, r_prime) in closed form: the
    largest distance from a bi-infinite tree path's vertices to its limit
    geodesic, and from that geodesic to the path's vertices.

    L_j has foot distance p = -log tan(arc/4) in the direction
    2 pi j / 3, and cosh d(L_0, L_1) = -<n_0, n_1> on their unit normals.
    The path ...0101... runs along the axis of r_0 r_1, their common
    perpendicular with normal m, and its vertices lie delta = arcsinh |m_2|
    from it.  L_0 crosses the axis d/2 from the foot of o, so its nearest
    vertices o and r_0 o lie arccosh(cosh delta cosh(d/2)) from it.  The
    tests check both as suprema over every reduced path to a fixed depth.
    """
    _check_arc(arc_length)
    n0, n1 = _foot_normals(arc_length)[:2]
    d = math.acosh(-float(minkowski(n0, n1)))
    delta = math.asinh(abs(float(geodesic_normal(n0, n1)[2])))
    return delta, math.acosh(math.cosh(delta) * math.cosh(d / 2.0))
