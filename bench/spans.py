"""In-memory span recorder for the traced benchmark run.

``Tracer.install`` wraps the public functions in ``TARGETS`` by rebinding
every reference to them in the loaded ``sgp.*`` module namespaces, so
calls between modules are seen too.  The ``NumericalSemigroup``
constructor is wrapped on the class (``__init__``), because other code
uses the class itself with ``isinstance``; the ``min_generators``
property records only its first, computing access.  Generators such as
``descendants`` are left unwrapped: a span around one would close when
the generator is created, not when it is exhausted.

A span is (name, start, end, parent, request id).  Spans are kept in
flat arrays and written out by ``Tracer.dump`` when the run ends.  Self
time is a span's duration minus the part of it covered by its child
spans; see ``self_times``.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

# (module, attribute, span name); "Class.attr" targets a class attribute
TARGETS = (
    ("sgp.cli", "run", "cli.run"),
    ("sgp.core", "parse_semigroup", "core.parse_semigroup"),
    ("sgp.core", "from_generators", "core.from_generators"),
    ("sgp.core", "NumericalSemigroup.__init__", "core.NumericalSemigroup"),
    ("sgp.core", "NumericalSemigroup.min_generators", "core.min_generators"),
    ("sgp.core", "tree_children", "core.tree_children"),
    ("sgp.classify", "type_verdict", "classify.type_verdict"),
    ("sgp.classify", "symmetry_profile", "classify.symmetry_profile"),
    ("sgp.classify", "project_by_n", "classify.project_by_n"),
    ("sgp.obstruction", "gap_sum_profile", "obstruction.gap_sum_profile"),
    ("sgp.obstruction", "pair_sum_extras", "obstruction.pair_sum_extras"),
    ("sgp.obstruction", "pairing_obstruction", "obstruction.pairing_obstruction"),
    ("sgp.bounds", "evaluate", "bounds.evaluate"),
    ("sgp.bounds", "coprime_lower_bound", "bounds.coprime_lower_bound"),
    ("sgp.families", "cover_family", "families.cover_family"),
    ("sgp.families", "buchweitz_family", "families.buchweitz_family"),
    ("sgp.families", "superelliptic_sharp", "families.superelliptic"),
    ("sgp.families", "superelliptic_extremal", "families.superelliptic"),
    ("sgp.families", "superelliptic_spurious", "families.superelliptic"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))


class Tracer:
    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.request = array("l")
        self.request_id = -1
        self.children_seen = 0  # tree nodes returned by tree_children
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        nid = self.names.index(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.request_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "sgp" or k.startswith("sgp.")]
        for modname, attr, name in TARGETS:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, member = attr.split(".")
                self._wrap_member(getattr(mod, cls_name), member, name)
                continue
            original = getattr(mod, attr)
            wrapped = self._counting(original) if attr == "tree_children" else original
            wrapped = self._span(name, wrapped)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._rebind(m, key, wrapped)

    def _counting(self, fn):
        def tree_children(H):
            children = fn(H)
            self.children_seen += len(children)
            return children
        return tree_children

    def _wrap_member(self, cls, member: str, name: str) -> None:
        original = cls.__dict__[member]
        if isinstance(original, property):
            getter = original.fget
            computing = self._span(name, getter)

            def first_access(obj):
                # the property caches in a slot; only the computing call is a span
                if getattr(obj, "_min_gens", None) is None:
                    return computing(obj)
                return getter(obj)

            self._rebind(cls, member, property(first_access, doc=original.__doc__))
        else:
            self._rebind(cls, member, self._span(name, original))

    def _rebind(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def summary(self) -> dict[str, tuple[int, float]]:
        return self_times(self.names, self.name_id, self.start, self.end, self.parent)

    def dump(self, path: Path) -> None:
        """Write spans as a JSON header line followed by raw arrays."""
        header = {"names": self.names, "count": len(self.start),
                  "arrays": [["name_id", "H"], ["start", "d"], ["end", "d"],
                             ["parent", "l"], ["request", "l"]]}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_id, self.start, self.end, self.parent, self.request):
                arr.tofile(fh)


def self_times(names, name_id, start, end, parent) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, total self time in seconds).

    Span i has name ``names[name_id[i]]``, interval ``[start[i], end[i]]``
    and parent index ``parent[i]`` (-1 for a root).  Its self time is its
    duration minus the measure of the union of its children's intervals,
    each clipped to the parent.
    """
    n = len(start)
    covered = array("d", bytes(8 * n))
    reach = array("d", start)  # per span: how far its children already cover it
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p >= 0:
            lo, hi = max(start[i], reach[p]), min(end[i], end[p])
            if hi > lo:
                covered[p] += hi - lo
                reach[p] = hi
    out: dict[str, list] = {}
    for i in range(n):
        entry = out.setdefault(names[name_id[i]], [0, 0.0])
        entry[0] += 1
        entry[1] += end[i] - start[i] - covered[i]
    return {name: (calls, total) for name, (calls, total) in out.items()}
