"""In-memory spans around epschain's public calls, installed from outside.

``Tracer.install`` replaces module attributes (and two ``PointCloud``
methods) with wrappers that record a span per call: a name, a start, an end,
the enclosing span and the operation it belongs to.  ``uninstall`` puts the
originals back, so untraced passes run the program untouched.  Nothing in
``src/`` knows about this.

A layer's self time is the time its spans cover minus the time covered by
their child spans.
"""

from __future__ import annotations

import functools
import json
import os
import time
import weakref
from collections import Counter

LAYER_TIMES = {
    "space.dist_s": ("space.dist",),
    "space.bits_s": ("space.bits",),
    "rips.build_s": ("rips.build",),
    "rips.reduce_s": ("rips.reduce",),
    "chain.find_s": ("chain.find",),
    "homotopy.query_s": ("homotopy.query",),
    "joinability.self_s": ("joinability.",),
    "cli.load_s": ("cli.load",),
    "cli.emit_s": ("cli.emit",),
}

COUNTS = ("space.points", "rips.edges", "rips.triangles", "rips.rank",
          "chain.find_calls", "homotopy.queries", "homotopy.states",
          "homotopy.by_greedy", "homotopy.by_certificate", "homotopy.by_search",
          "homotopy.by_budget", "joinability.candidates", "cli.report_bytes")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name, start, parent, op):
        self.name, self.start, self.end, self.parent, self.op = name, start, None, parent, op


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = None
        self._patches: list[tuple[object, str, object]] = []
        self._dist_seen = weakref.WeakSet()
        self._bits_seen = weakref.WeakKeyDictionary()
        self._rips_seen = weakref.WeakKeyDictionary()

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self._op))
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        sid = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(sid)

    def operation(self, label: str, fn):
        """Run one benchmark operation as the root span its layer spans share."""
        self._op = len(self.spans)
        try:
            return self.call("op." + label, fn)
        finally:
            self._op = None

    # -- patching ------------------------------------------------------------

    @staticmethod
    def _first(seen, cloud, eps) -> bool:
        done = seen.setdefault(cloud, set())
        if eps in done:
            return False
        done.add(eps)
        return True

    def _patch(self, owner, attr, wrapper_of):
        orig = getattr(owner, attr)
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, functools.wraps(orig)(wrapper_of(orig)))

    def install(self, ec) -> None:
        """Wrap the public calls of every layer; ``ec`` is the epschain package."""
        from epschain import chain, cli, documents, homotopy, joinability, rips, space

        tr = self

        def dist(orig):
            def w(cloud):
                if cloud in tr._dist_seen:
                    return orig(cloud)
                tr._dist_seen.add(cloud)
                tr.counts["space.points"] += len(cloud)
                return tr.call("space.dist", orig, cloud)
            return w

        def bits(orig):
            def w(cloud, scale):
                if not tr._first(tr._bits_seen, cloud, space.as_scale(scale).epsilon):
                    return orig(cloud, scale)
                return tr.call("space.bits", orig, cloud, scale)
            return w

        def build(orig):
            def w(cloud, scale):
                if not tr._first(tr._rips_seen, cloud, space.as_scale(scale).epsilon):
                    return orig(cloud, scale)
                skel = tr.call("rips.build", orig, cloud, scale)
                # force the reduction here, so its cost is not charged to the
                # first query that happens to need it
                b1 = tr.call("rips.reduce", skel.betti1)
                rank1 = len(cloud) - len(chain.components(cloud, skel.scale))
                tr.counts["rips.edges"] += len(skel.edges)
                tr.counts["rips.triangles"] += len(skel.triangles)
                tr.counts["rips.rank"] += len(skel.edges) - rank1 - b1
                return skel
            return w

        def find(orig):
            def w(*args, **kwargs):
                tr.counts["chain.find_calls"] += 1
                return tr.call("chain.find", orig, *args, **kwargs)
            return w

        def query(orig):
            def w(*args, **kwargs):
                v = tr.call("homotopy.query", orig, *args, **kwargs)
                tr.counts["homotopy.queries"] += 1
                tr.counts["homotopy.states"] += v.states_explored
                if v.is_not_homotopic:
                    tr.counts["homotopy.by_certificate"] += 1
                elif v.is_unknown:
                    tr.counts["homotopy.by_budget"] += 1
                elif v.states_explored:
                    tr.counts["homotopy.by_search"] += 1
                else:
                    tr.counts["homotopy.by_greedy"] += 1
                return v
            return w

        def short(orig):
            def w(*args, **kwargs):
                v = orig(*args, **kwargs)
                tr.counts["joinability.candidates"] += 1
                tr.counts["joinability.short"] += int(v.is_homotopic)
                return v
            return w

        def named(span_name):
            def wrapper_of(orig):
                def w(*args, **kwargs):
                    return tr.call(span_name, orig, *args, **kwargs)
                return w
            return wrapper_of

        def emit(orig):
            def w(doc, path):
                out = tr.call("cli.emit", orig, doc, path)
                tr.counts["cli.report_bytes"] += os.path.getsize(path)
                return out
            return w

        self._patch(space.PointCloud, "distances", dist)
        self._patch(space.PointCloud, "entourage_bits", bits)
        self._patch(rips, "build", build)
        for mod in (chain, joinability, cli, ec):
            self._patch(mod, "find_chain", find)
        for mod in (homotopy, cli, ec):
            self._patch(mod, "are_homotopic", query)
        self._patch(joinability, "is_short", short)
        for fn in ("texas_obstruction_report", "build_generalized_path", "refine_chain",
                   "local_joinability_scan", "crest_gap_check", "texas_dichotomy"):
            self._patch(joinability, fn, named("joinability." + fn))
        for mod in (space, cli, ec):
            self._patch(mod, "load_cloud", named("cli.load"))
        self._patch(documents, "read_doc", named("cli.load"))
        for mod in (documents, cli):
            self._patch(mod, "write_doc", emit)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        """A point to measure a pass from: span index and counter snapshot."""
        return len(self.spans), Counter(self.counts)

    def layer_metrics(self, since: tuple[int, Counter]) -> dict[str, float]:
        """Per-layer self times, counts and yields of the spans after ``since``."""
        first, counts0 = since
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for s in spans:
            if s.parent is not None and s.parent >= first:
                child[s.parent - first] += s.end - s.start
        self_time = Counter()
        for s, c in zip(spans, child):
            self_time[s.name] += (s.end - s.start) - c
        out = {}
        for metric, prefixes in LAYER_TIMES.items():
            out[metric] = sum(t for name, t in self_time.items()
                              if name.startswith(prefixes))
        counts = Counter(self.counts)
        counts.subtract(counts0)
        for name in COUNTS:
            out[name] = counts[name]
        out["rips.pivot_yield"] = _ratio(counts["rips.rank"], counts["rips.triangles"])
        out["homotopy.states_per_s"] = _ratio(counts["homotopy.states"],
                                              out["homotopy.query_s"])
        out["joinability.candidate_yield"] = _ratio(counts["joinability.short"],
                                                    counts["joinability.candidates"])
        return out

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for k, s in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "op": s.op}) + "\n")


def _ratio(a, b) -> float:
    return a / b if b else 0.0


