"""Span recorder wrapped around plumbcalc's public functions from outside.

``Tracer.install`` replaces each function named in ``LAYERS`` by a
recording wrapper in every ``plumbcalc.*`` module namespace that holds it,
and wraps ``PlumbingGraph.__init__`` on the class, so calls between the
package's own modules are recorded too.  Nothing under ``src/`` changes.

A span is (name, parent span, start, end), kept in flat arrays in memory
and written out by ``dump``.  A span's self time is its duration minus the
durations of its child spans.  Counters derived from returned values
(Laufer steps, stabilize decrements, subsets tried, certificate shape,
census records) are added up as the wrappers return.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from time import perf_counter

LAYERS = {
    "graph": ["PlumbingGraph", "parse_graph", "serialize_graph", "minimize", "canonical_code"],
    "lattice": ["determinant", "definiteness", "canonical_cycle", "chi"],
    "laufer": ["is_rational", "zmin_multiplicities", "stabilize", "is_bad_set", "min_bad"],
    "surgery": [
        "cut_and_fill",
        "lo_certificate",
        "check_certificate",
        "certificate_to_json",
        "certificate_from_json",
    ],
    "seifert": ["star_to_seifert"],
    "census": ["census_graphs"],
    "classify": ["classify", "report_to_json"],
    "cli": ["main"],
}

SUM_COUNTERS = (
    "laufer.steps",
    "laufer.stabilize.decrements",
    "laufer.min_bad.subsets_tried",
    "laufer.min_bad.hits",
    "surgery.cert.nodes",
    "census.census_graphs.yielded",
)
MAX_COUNTERS = ("surgery.cert.max_depth", "surgery.cert.max_graph_vertices")


def _cert_shape(node) -> tuple[int, int, int]:
    """(nodes, depth, largest graph) of a certificate tree."""
    count, depth, largest = 0, 0, 0
    stack = [(node, 1)]
    while stack:
        n, d = stack.pop()
        count += 1
        depth = max(depth, d)
        largest = max(largest, len(n.graph))
        stack.extend((c, d + 1) for c in n.children)
    return count, depth, largest


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls = array("q")
        self._stack: list[int] = []
        self.counters = dict.fromkeys(SUM_COUNTERS + MAX_COUNTERS, 0)
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return nid

    def open(self, nid: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def _parent_name(self) -> str | None:
        return self.names[self.name[self._stack[-1]]] if self._stack else None

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, qual: str, fn, after=None):
        nid = self.name_id(qual)
        calls = self.calls
        open_, close = self.open, self.close
        if inspect.isgeneratorfunction(fn):
            # Each next() is one span; the generator body runs only then.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[nid] += 1
                it = fn(*args, **kwargs)
                while True:
                    sid = open_(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(sid)
                    if after is not None:
                        after(args, item)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            sid = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _hooks(self) -> dict:
        c = self.counters

        def steps(mult) -> None:
            c["laufer.steps"] += sum(mult.values()) - len(mult)

        def decrements(args, out) -> None:
            g = args[0]
            c["laufer.stabilize.decrements"] += sum(
                int(g.weight(v) - out.weight(v)) for v in g.vertices
            )

        def bad_set(args, hit) -> None:
            if self._parent_name() == "laufer.min_bad":
                c["laufer.min_bad.subsets_tried"] += 1
                c["laufer.min_bad.hits"] += bool(hit)

        def certificate(args, cert) -> None:
            nodes, depth, largest = _cert_shape(cert)
            c["surgery.cert.nodes"] += nodes
            c["surgery.cert.max_depth"] = max(c["surgery.cert.max_depth"], depth)
            c["surgery.cert.max_graph_vertices"] = max(
                c["surgery.cert.max_graph_vertices"], largest
            )

        def yielded(args, graph) -> None:
            c["census.census_graphs.yielded"] += 1

        return {
            "laufer.is_rational": lambda args, v: steps(v.z_min),
            "laufer.zmin_multiplicities": lambda args, m: steps(m),
            "laufer.stabilize": decrements,
            "laufer.is_bad_set": bad_set,
            "surgery.lo_certificate": certificate,
            "census.census_graphs": yielded,
        }

    def install(self) -> None:
        """Wrap every function of ``LAYERS`` wherever plumbcalc holds it."""
        import plumbcalc.cli  # noqa: F401  (the one module __init__ does not import)

        modules = [
            m for n, m in sorted(sys.modules.items())
            if n == "plumbcalc" or n.startswith("plumbcalc.")
        ]
        hooks = self._hooks()
        for layer, fns in LAYERS.items():
            home = sys.modules[f"plumbcalc.{layer}"]
            for fn_name in fns:
                qual = f"{layer}.{fn_name}"
                orig = getattr(home, fn_name)
                if inspect.isclass(orig):
                    init = orig.__init__
                    orig.__init__ = self._wrap(qual, init)
                    self._undo.append((orig, "__init__", init))
                    continue
                wrapped = self._wrap(qual, orig, hooks.get(qual))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)
                            self._undo.append((mod, attr, orig))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    # -- results -----------------------------------------------------------

    def merge(self, other: "Tracer", parent: int) -> None:
        """Append another tracer's spans under span ``parent``: a child
        process's spans, comparable because on Linux ``perf_counter`` reads
        CLOCK_MONOTONIC, which every process shares."""
        base = len(self.name)
        remap = [self.name_id(n) for n in other.names]
        for i, count in enumerate(other.calls):
            self.calls[remap[i]] += count
        self.name.extend(remap[n] for n in other.name)
        self.parent.extend(parent if p < 0 else p + base for p in other.parent)
        self.start.extend(other.start)
        self.end.extend(other.end)
        for k in SUM_COUNTERS:
            self.counters[k] += other.counters[k]
        for k in MAX_COUNTERS:
            self.counters[k] = max(self.counters[k], other.counters[k])

    def self_times(self) -> list[float]:
        """Per-span duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for sid, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[sid] - self.start[sid]
        return own

    def dump(self, path) -> None:
        """Header line (JSON: names, calls, counters), then one span a line:
        name id, parent span, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            header = {"names": self.names, "calls": list(self.calls), "counters": self.counters}
            fh.write(json.dumps(header) + "\n")
            for row in zip(self.name, self.parent, self.start, self.end):
                fh.write("%d\t%d\t%r\t%r\n" % row)

    @classmethod
    def load(cls, path) -> "Tracer":
        tr = cls()
        with open(path, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            for name in header["names"]:
                tr.name_id(name)
            tr.calls = array("q", header["calls"])
            tr.counters.update(header["counters"])
            for line in fh:
                nid, parent, start, end = line.split("\t")
                tr.name.append(int(nid))
                tr.parent.append(int(parent))
                tr.start.append(float(start))
                tr.end.append(float(end))
        return tr
