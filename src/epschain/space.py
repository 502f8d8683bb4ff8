"""Finite metric samples: point clouds, scales, and the sampled example spaces.

A :class:`PointCloud` is either a list of planar coordinates or an explicit
distance matrix.  All closeness tests use the *closed* inequality
``dist(x, y) <= epsilon``; there is no tolerance fudging in the semantics
(tolerances belong in test assertions, not here).  The one slack is in
validating an explicit distance matrix: a matrix that went through decimal
text or floating arithmetic may break the triangle inequality by rounding,
so a violation is forgiven when it is at most a ``1e-9`` fraction of the
two-leg sum.  Being relative, the slack means the same at every scale.

Clouds are immutable after construction.  Every closeness test reads one
list of close pairs (:meth:`PointCloud.close_pairs`): the pairs i < j within
the largest scale asked so far, with their distances, sorted by length, so
that every smaller scale reads a prefix of it.  A coordinate cloud computes
it in a sweep over row blocks that keeps only the pairs within the scale,
and so never holds an n x n array; a matrix cloud reads it off its matrix.
Each distance float is the one the full matrix (:meth:`PointCloud.distances`,
built only when asked) holds, so no test at a scale depends on which of them
it reads.  The list and the per-scale adjacency bitsets are computed lazily
and cached, so repeated queries at the same scale are cheap.
"""

from __future__ import annotations

import inspect
import math
import operator
from dataclasses import dataclass

import numpy as np

from .documents import SCHEMA_VERSION, DocumentError, dumps_doc, parse_doc, read_doc


@dataclass(frozen=True)
class Scale:
    """A closeness threshold epsilon >= 0, in the same units as distances."""

    epsilon: float

    def __post_init__(self):
        eps = _real(self.epsilon, "epsilon")
        if not math.isfinite(eps) or eps < 0:
            raise ValueError(f"epsilon must be a finite nonnegative real, got {self.epsilon}")
        object.__setattr__(self, "epsilon", eps)


def as_scale(value) -> Scale:
    """Coerce a number to a Scale; Scales pass through unchanged."""
    return value if isinstance(value, Scale) else Scale(value)


class PointCloud:
    """A finite metric sample with optional per-point part labels.

    Exactly one of ``points`` (an (n, 2) coordinate array) or ``matrix`` (an
    explicit symmetric distance matrix) must be given.  Explicit matrices are
    checked for symmetry, zero diagonal, and the triangle inequality.
    """

    def __init__(self, points=None, matrix=None, labels=None, parts=None, name=""):
        if (points is None) == (matrix is None):
            raise ValueError("give exactly one of points or matrix")
        self.name = str(name)
        self._dist = None
        self._pairs = None  # (radius, i, j, d): see close_pairs
        if points is not None:
            pts = _real_array(points, "points")
            if pts.size == 0:
                pts = pts.reshape(0, 2)
            if pts.ndim != 2 or pts.shape[1] != 2:
                raise ValueError("points must be an (n, 2) array")
            if not np.all(np.isfinite(pts)):
                raise ValueError("points must be finite")
            pts.setflags(write=False)
            self.points = pts
            self.matrix = None
            n = len(pts)
        else:
            mat = _real_array(matrix, "matrix")
            if mat.size == 0:
                mat = mat.reshape(0, 0)
            _check_distance_matrix(mat)
            mat.setflags(write=False)
            self.points = None
            self.matrix = mat
            self._dist = mat
            n = len(mat)
        if labels is not None:
            labels = _names(labels, "labels")
            if len(labels) != n:
                raise ValueError(f"{len(labels)} labels for {n} points")
        self.labels = labels
        if parts is None:
            parts = tuple(sorted(set(labels))) if labels else ()
        else:
            parts = _names(parts, "parts")
        if labels is not None:
            bad = set(labels) - set(parts)
            if bad:
                raise ValueError(f"labels {sorted(bad)} not among declared parts {parts}")
        self.parts = parts
        # lazy caches: scale (epsilon) -> adjacency bitsets / edge data
        self._bits_cache: dict[float, list[int]] = {}
        self._rips_cache: dict[float, object] = {}

    def __len__(self) -> int:
        return len(self.points) if self.points is not None else len(self.matrix)

    def __repr__(self) -> str:
        return f"PointCloud({self.name!r}, n={len(self)})"

    def distances(self) -> np.ndarray:
        """Full pairwise distance matrix, built only when asked (cached);
        matrix clouds keep theirs.

        Nothing in the program reads it for a coordinate cloud, whose
        closeness tests read :meth:`close_pairs`; it is here for callers that
        want every distance at once.  Its floats are those of the pair list.
        """
        if self._dist is None:
            n = len(self)
            d = np.empty((n, n))
            for r0, block in self._row_blocks(upper=False):
                d[r0:r0 + len(block)] = block
            np.fill_diagonal(d, 0.0)
            d.setflags(write=False)
            self._dist = d
        return self._dist

    def _row_blocks(self, upper: bool):
        """(r0, block) per _DIST_ROWS rows from r0: the distances from those
        rows to every column, or only to the columns from r0 on if ``upper``.

        A coordinate block is sqrt(dx*dx + dy*dy), each float taking the same
        three operations as summing the squared differences over an (n, n, 2)
        array, and a point pair's float does not depend on the block it is
        computed in.  A coordinate difference negates exactly, so d(i, j) and
        d(j, i) are the same float, as in a matrix, which must be symmetric.
        """
        n = len(self)
        x, y = (None, None) if self.points is None else self.points.T
        for r0 in range(0, n, _DIST_ROWS):
            rows, cols = slice(r0, r0 + _DIST_ROWS), slice(r0 if upper else 0, n)
            if self.matrix is not None:
                yield r0, self.matrix[rows, cols]
                continue
            block = np.subtract.outer(x[rows], x[cols])
            block *= block
            dy = np.subtract.outer(y[rows], y[cols])
            dy *= dy
            block += dy
            yield r0, np.sqrt(block, out=block)

    def close_pairs(self, scale) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arrays (i, j, d) of the pairs i < j at distance d <= epsilon,
        sorted by (d, i, j).

        The cloud keeps one such list, for the largest scale asked so far, and
        answers every smaller scale with a prefix of it (read-only views).
        A larger scale rebuilds it in one sweep over row blocks that keeps
        what is within the scale, so no n x n array is built.  The sweep
        meets the pairs in (i, j) order, and a stable sort by d gives the
        rest of the order.
        """
        eps = as_scale(scale).epsilon
        if self._pairs is None or self._pairs[0] < eps:
            found = [(np.empty(0, np.int32), np.empty(0, np.int32), np.empty(0))]
            for r0, block in self._row_blocks(upper=True):
                # a block's first columns are its rows: keep j > i there
                close = block <= eps
                h = len(block)
                close[:, :h] &= _ABOVE_DIAGONAL[:h, :h]
                a, c = np.nonzero(close)
                found.append(((a + r0).astype(np.int32), (c + r0).astype(np.int32),
                              block[a, c]))
            i, j, d = map(np.concatenate, zip(*found))
            order = np.argsort(d, kind="stable")
            i, j, d = i[order], j[order], d[order]
            for a in (i, j, d):
                a.setflags(write=False)
            self._pairs = (eps, i, j, d)
        _, i, j, d = self._pairs
        k = int(np.searchsorted(d, eps, side="right"))
        return i[:k], j[:k], d[:k]

    def distance(self, i: int, j: int) -> float:
        """The distance of one pair, computed alone with the sweep's
        operations, so it is the float :meth:`close_pairs` and
        :meth:`distances` hold."""
        n = len(self)
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"point index out of range: ({i}, {j}) for n={n}")
        if self.matrix is not None:
            return float(self.matrix[i, j])
        (xi, yi), (xj, yj) = self.points[i].tolist(), self.points[j].tolist()
        dx, dy = xi - xj, yi - yj
        return math.sqrt(dx * dx + dy * dy)

    def neighbors(self, i: int, scale) -> list[int]:
        """Indices j != i with distance(i, j) <= epsilon, sorted."""
        n = len(self)
        if not 0 <= i < n:
            raise IndexError(f"point index out of range: {i} for n={n}")
        a, b, _ = self.close_pairs(scale)
        return sorted(b[a == i].tolist() + a[b == i].tolist())

    def entourage_bits(self, scale) -> list[int]:
        """Per-vertex adjacency bitsets at a scale, self bit included (cached).

        Bit j of entry i is set iff distance(i, j) <= epsilon.  The diagonal
        is included because (i, i) is always in a closed entourage.
        """
        eps = as_scale(scale).epsilon
        bits = self._bits_cache.get(eps)
        if bits is None:
            # one row of little-endian bytes per vertex; each close pair sets
            # a bit at both of its ends, each vertex its own.  No (row, col)
            # comes twice, so adding the bits into their bytes ORs them
            n = len(self)
            i, j, _ = self.close_pairs(eps)
            diag = np.arange(n, dtype=np.int32)
            rows, cols = np.concatenate((i, j, diag)), np.concatenate((j, i, diag))
            width = (n + 7) // 8
            packed = np.zeros(n * width, np.uint8)
            np.add.at(packed, rows.astype(np.intp) * width + (cols >> 3),
                      np.uint8(1) << (cols & 7).astype(np.uint8))
            raw = packed.tobytes()
            bits = [int.from_bytes(raw[r * width:(r + 1) * width], "little") for r in range(n)]
            self._bits_cache[eps] = bits
        return bits


def _real_array(values, what: str) -> np.ndarray:
    """``values`` as a float array.  Converting with ``dtype=float`` would
    parse strings and booleans, so the values' own kind must be a number's,
    and a list's elements' too, as NumPy gives ``[True, 1.5]`` a float kind."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf":
        raise TypeError(f"{what} must be integers or floats, not {arr.dtype.name}")
    if not isinstance(values, np.ndarray):
        # neither boolean type can be subclassed, so exact types suffice
        types = set(map(type, np.asarray(values, dtype=object).flat))
        if bool in types or np.bool_ in types:
            raise TypeError(f"{what} must be integers or floats, not booleans")
    return np.asarray(arr, dtype=float)


def _names(values, what: str) -> tuple[str, ...]:
    if isinstance(values, str):
        raise ValueError(f"{what} must be a sequence of names, not a string")
    names = tuple(values)
    bad = [s for s in names if not isinstance(s, str)]
    if bad:
        raise TypeError(f"{what} must be strings, not {bad[0]!r}")
    return tuple(map(str, names))


_DIST_ROWS = 64  # rows of the distance matrix computed per step
_ABOVE_DIAGONAL = ~np.tri(_DIST_ROWS, dtype=bool)


_TRIANGLE_SLACK = 1e-9  # relative to the two-leg sum; see the module docstring
_TILE = 16  # rows and intermediate points per step of the triangle check


def _check_distance_matrix(mat: np.ndarray) -> None:
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("distance matrix must be square")
    if not np.all(np.isfinite(mat)):
        raise ValueError("distance matrix must be finite")
    if np.any(mat < 0):
        raise ValueError("distances must be nonnegative")
    if np.any(np.diag(mat) != 0):
        raise ValueError("distance matrix must have a zero diagonal")
    if not np.array_equal(mat, mat.T):
        raise ValueError("distance matrix must be symmetric")
    # d(i, j) <= min over k of the two legs, checked in tiles of rows and
    # intermediate points that stay in cache.  The matrix and the sum of the
    # legs are symmetric in i and j, so a row block from r checks only the
    # columns j >= r.  A tile that fails is rescanned point by point, to name
    # the first k through which any pair breaks the inequality.
    n = len(mat)
    scaled = mat * (1 + _TRIANGLE_SLACK)
    for k0 in range(0, n, _TILE):
        ks = slice(k0, k0 + _TILE)
        for r0 in range(0, n, _TILE):
            rows = slice(r0, r0 + _TILE)
            legs = scaled[rows, ks, None] + scaled[None, ks, r0:]
            if np.any(mat[rows, r0:] > legs.min(axis=1)):
                k = next(k for k in range(k0, min(k0 + _TILE, n))
                         if np.any(mat > scaled[:, k, None] + scaled[None, k, :]))
                raise ValueError(f"triangle inequality violated via point {k}")


# ---------------------------------------------------------------------------
# Example-space samplers
# ---------------------------------------------------------------------------

# the most points a sampler lays out; a sampler counts its points from its
# parameters and refuses more before it builds any array
MAX_POINTS = 10**6


def crest_height(x):
    """Height of the oscillating curve used by the texas_circle family."""
    return np.sin(x) ** 2 + 1.0 / x


def texas_circle_cloud(h=0.05, h_segment=None, m_end=8.0, must_include=(), name="texas_circle"):
    """Sample the oscillating-curve space: curve, axis tail, and left segment.

    The curve part is the graph of ``sin^2 x + 1/x`` on [pi, m_end*pi] on a
    grid of step ``h``; the axis part is the same grid at height 0; the
    segment part runs up from (pi, 0) to height 1/pi in steps of
    ``h_segment``.  Exact duplicate coordinates are kept once (first part
    wins), so (pi, 0) belongs to the axis part.
    """
    h, h_segment, m_end = _reals(h=h, h_segment=h if h_segment is None else h_segment,
                                 m_end=m_end)
    must_include = _coordinates(must_include)
    if h <= 0 or h_segment <= 0:
        raise ValueError("sampling steps must be strictly positive")
    if m_end * math.pi <= math.pi:
        raise ValueError("domain end m_end*pi must exceed pi")
    nx = _grid_points((m_end * np.pi - np.pi) / h)
    ny = _grid_points((1 / np.pi) / h_segment)
    _check_size(2 * nx + ny + len(must_include))
    xs = np.pi + h * np.arange(nx)
    ys = h_segment * np.arange(ny)
    pts: list[tuple[float, float]] = []
    labels: list[str] = []
    for x in xs:
        pts.append((float(x), float(crest_height(x))))
        labels.append("graph")
    for x in xs:
        pts.append((float(x), 0.0))
        labels.append("axis")
    for y in ys:
        pts.append((float(np.pi), float(y)))
        labels.append("segment")
    return _assemble(pts, labels, ("graph", "axis", "segment"), must_include, name)


def circle_cloud(n=360, name="circle"):
    """n equally spaced points on the unit circle."""
    n = operator.index(n)
    if n < 1:
        raise ValueError("need at least one point")
    _check_size(n)
    t = 2 * np.pi * np.arange(n) / n
    pts = [(float(np.cos(a)), float(np.sin(a))) for a in t]
    return PointCloud(points=pts, name=name)


def parallel_lines_cloud(gap=1.0, step=0.04, length=5.0, must_include=(), name="parallel_lines"):
    """Two horizontal sampled lines at vertical distance ``gap``.

    The default step stays strictly below the scan scales used on this
    family, so float rounding of the grid cannot push a hop past a closed
    entourage test that its real value would satisfy.
    """
    gap, step, length = _reals(gap=gap, step=step, length=length)
    must_include = _coordinates(must_include)
    if step <= 0 or length <= 0 or gap <= 0:
        raise ValueError("gap, step, and length must be strictly positive")
    nx = _grid_points(length / step)
    _check_size(2 * nx + len(must_include))
    xs = step * np.arange(nx)
    pts: list[tuple[float, float]] = []
    labels: list[str] = []
    for x in xs:
        pts.append((float(x), 0.0))
        labels.append("lower")
    for x in xs:
        pts.append((float(x), gap))
        labels.append("upper")
    return _assemble(pts, labels, ("lower", "upper"), must_include, name)


def interval_cloud(length=1.0, step=0.05, name="interval"):
    """The segment [0, length] on the x-axis, sampled with step ``step``."""
    length, step = _reals(length=length, step=step)
    if step <= 0 or length < 0:
        raise ValueError("step must be positive and length nonnegative")
    nx = _grid_points(length / step)
    _check_size(nx)
    xs = step * np.arange(nx)
    return PointCloud(points=[(float(x), 0.0) for x in xs], name=name)


def _real(value, what: str) -> float:
    # float() would also read a string or a boolean
    if isinstance(value, (str, bytes, bool, np.bool_)):
        raise TypeError(f"{what} must be a number, not {value!r}")
    return float(value)


def _reals(**params) -> list[float]:
    # checked before any grid is laid out: np.arange cannot size an infinite
    # or NaN range, and warns on the way
    out = []
    for name, value in params.items():
        value = _real(value, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
        out.append(value)
    return out


def _coordinates(points) -> tuple[tuple[float, float], ...]:
    return tuple((_real(x, "must_include"), _real(y, "must_include")) for x, y in points)


def _grid_points(steps: float) -> int:
    """floor(steps) + 1 grid points, or MAX_POINTS + 1 if that is more, so
    that a huge quotient is refused by :func:`_check_size`, not converted."""
    steps = np.floor(steps)
    return int(steps) + 1 if steps < MAX_POINTS else MAX_POINTS + 1


def _check_size(count: int) -> None:
    if count > MAX_POINTS:
        raise ValueError(f"the sample would have more than {MAX_POINTS} points")


def _assemble(pts, labels, parts, must_include, name) -> PointCloud:
    # drop exact coordinate duplicates (first part wins), then force inclusions
    seen = set()
    out_pts, out_labels = [], []
    for p, lab in zip(pts, labels):
        if p in seen:
            continue
        seen.add(p)
        out_pts.append(p)
        out_labels.append(lab)
    for m in must_include:
        if m in seen:
            continue
        if out_pts:
            arr = np.asarray(out_pts)
            d2 = ((arr - np.asarray(m)) ** 2).sum(1)
            out_labels.append(out_labels[int(np.argmin(d2))])
        else:
            out_labels.append(parts[0])
        out_pts.append(m)
        seen.add(m)
    return PointCloud(points=out_pts, labels=out_labels, parts=parts, name=name)


def texas_pair(n: int) -> tuple[tuple[float, float], tuple[float, float]]:
    """The curve/axis point pair at x = n*pi, at vertical distance 1/(n*pi)."""
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"the curve/axis pair at x = n*pi needs n >= 1, got {n}")
    x = n * math.pi
    return (x, 1.0 / x), (x, 0.0)


def texas_sample(n=2, **sampler_args) -> PointCloud:
    """texas_circle sample that always contains the pair at x = n*pi.

    Other keywords go to :func:`texas_circle_cloud`, whose defaults apply.
    """
    return texas_circle_cloud(must_include=texas_pair(n), **sampler_args)


_SAMPLERS = {"texas_circle": texas_circle_cloud, "circle": circle_cloud,
             "parallel_lines": parallel_lines_cloud, "interval": interval_cloud}
FAMILIES = tuple(_SAMPLERS)


def generate(family: str, params=None, must_include=(), name: str = "") -> PointCloud:
    """Sample a family's space into a cloud.  Deterministic per arguments.

    ``params`` go straight to the family's sampler as keywords, so a
    parameter left out takes that sampler's own default.  ``must_include``
    coordinates are forced verbatim into the sample and labeled by their
    nearest sampled part.  An unknown family, a keyword the sampler does not
    take, or ``must_include`` for a family whose sampler cannot force points
    raises ValueError.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    params = params or {}
    must_include = _coordinates(must_include)
    keywords = set(inspect.signature(_SAMPLERS[family]).parameters)
    unknown = sorted(set(params) - (keywords - {"name", "must_include"}))
    if must_include and "must_include" not in keywords:
        unknown.append("must_include")
    if unknown:
        raise ValueError(f"family {family!r} takes no {', '.join(unknown)}")
    inclusions = {"must_include": must_include} if must_include else {}
    return _SAMPLERS[family](**params, **inclusions, name=name or family)


# ---------------------------------------------------------------------------
# Point-cloud documents
# ---------------------------------------------------------------------------

def cloud_to_doc(cloud: PointCloud) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "kind": "point_cloud", "name": cloud.name}
    if cloud.points is not None:
        doc["points"] = [[float(x), float(y)] for x, y in cloud.points]
    else:
        doc["matrix"] = [[float(v) for v in row] for row in cloud.matrix]
    if cloud.labels is not None:
        doc["labels"] = list(cloud.labels)
        doc["parts"] = list(cloud.parts)
    return doc


def cloud_from_doc(doc: dict) -> PointCloud:
    if "points" in doc and "matrix" in doc:
        raise DocumentError("document has both points and matrix")
    if "points" not in doc and "matrix" not in doc:
        raise DocumentError("document has neither points nor matrix")
    try:
        return PointCloud(points=doc.get("points"), matrix=doc.get("matrix"),
                          labels=doc.get("labels"), parts=doc.get("parts") or None,
                          name=doc.get("name", ""))
    except (TypeError, ValueError) as exc:
        raise DocumentError(str(exc)) from exc


def save_cloud(cloud: PointCloud, path=None) -> str:
    """Serialize a cloud; also write it to ``path`` when given.

    Coordinates serialize through Python's shortest round-trip decimal form
    (at most 17 significant digits), so load(save(c)) is bit-exact.
    """
    text = dumps_doc(cloud_to_doc(cloud))
    if path is not None:
        from pathlib import Path

        Path(path).write_text(text, encoding="utf-8")
    return text


def load_cloud(source) -> PointCloud:
    """Load a cloud from a path, or from document text containing JSON."""
    text = str(source)
    if text.lstrip().startswith("{"):
        return cloud_from_doc(parse_doc(text, "point_cloud"))
    return cloud_from_doc(read_doc(source, "point_cloud"))
