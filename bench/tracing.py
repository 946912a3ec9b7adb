"""Spans around the calls into each layer of mealyforge.

The wrappers are installed from the benchmark by replacing module
attributes, so no source under ``src/`` changes.  A function imported by
name into another module is wrapped where that module looks it up.  Spans
stay in memory and are written out when the workload ends.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter

# (span name, module, attribute, other modules that import it by name)
TARGETS = [
    ("cli.main", "cli", "main", ()),
    ("fileio.load_machine", "fileio", "load_machine", ()),
    ("fileio.load_group", "fileio", "load_group", ()),
    ("fileio.dump_json", "fileio", "dump_json", ()),
    ("constructions.dual", "constructions", "dual", ("boundary", "cayley")),
    ("levels.growth_chi", "levels", "growth_chi", ()),
    ("levels.level_graph", "levels", "level_graph", ()),
    ("levels.graph_components", "levels", "LevelGraph.components", ()),
    ("levels.level_component", "levels", "level_component", ()),
    ("levels.schreier_stabilizer_generators", "levels", "schreier_stabilizer_generators", ()),
    ("levels.level_group", "levels", "level_group", ("boundary", "cayley")),
    ("levels.find_relations", "levels", "find_relations", ()),
    ("levels.is_group_relation_up_to", "levels", "is_group_relation_up_to", ("cayley",)),
    ("levels.free_semigroup_check", "levels", "free_semigroup_check", ()),
    # Only where boundary imports it: the per-word component BFS.
    ("levels._component_raw", "boundary", "_component_raw", ()),
    ("graphs.canonical_marked", "graphs", "canonical_marked", ("levels", "boundary")),
    ("graphs.basis", "graphs", "basis", ("levels",)),
    ("graphs.stallings_automaton", "graphs", "stallings_automaton", ()),
    ("graphs.membership", "graphs", "membership", ()),
    ("boundary.finiteness_semidecision", "boundary", "finiteness_semidecision", ()),
    ("boundary.decide_bounded_schreier", "boundary", "decide_bounded_schreier", ()),
    ("boundary.torsion_search", "boundary", "torsion_search", ()),
    ("machines.action_signature", "machines", "action_signature", ("levels", "boundary")),
    ("cayley.relation_recursion", "cayley", "relation_recursion", ()),
    ("cayley.act_transition", "cayley", "act_transition", ()),
]


def _total(span):
    return lambda a: a.total.get(span, 0.0)


def _calls(span):
    return lambda a: a.calls.get(span, 0)


def _ratio(num, den):
    return num / den if den else 0.0


# Per-layer metrics: name -> (unit, function of one pass's aggregate).
PER_LAYER = {}
for _name, _span in [
    ("levels.growth_chi_s", "levels.growth_chi"),
    ("levels.level_graph_s", "levels.level_graph"),
    ("levels.graph_components_s", "levels.graph_components"),
    ("levels.level_group_s", "levels.level_group"),
    ("levels.relation_check_s", "levels.is_group_relation_up_to"),
    ("levels.component_raw_s", "levels._component_raw"),
    ("graphs.canonical_marked_s", "graphs.canonical_marked"),
    ("graphs.basis_s", "graphs.basis"),
    ("graphs.stallings_s", "graphs.stallings_automaton"),
    ("boundary.finiteness_s", "boundary.finiteness_semidecision"),
    ("boundary.decide_bounded_s", "boundary.decide_bounded_schreier"),
    ("boundary.torsion_s", "boundary.torsion_search"),
    ("machines.action_signature_s", "machines.action_signature"),
    ("cayley.relation_recursion_s", "cayley.relation_recursion"),
    ("constructions.dual_s", "constructions.dual"),
]:
    PER_LAYER[_name] = ("s", _total(_span))
for _name, _span in [
    ("levels.relation_checks", "levels.is_group_relation_up_to"),
    ("levels.component_raw_calls", "levels._component_raw"),
    ("graphs.canonical_marked_calls", "graphs.canonical_marked"),
    ("graphs.membership_calls", "graphs.membership"),
    ("machines.action_signature_calls", "machines.action_signature"),
    ("cayley.act_transition_calls", "cayley.act_transition"),
]:
    PER_LAYER[_name] = ("count", _calls(_span))
PER_LAYER.update({
    "levels.relations_found_ratio": ("ratio", lambda a: _ratio(
        a.count["relations_found"], a.calls.get("levels.is_group_relation_up_to", 0))),
    "levels.component_vertices": ("count", lambda a: a.count["component_vertices"]),
    "graphs.canonical_distinct_ratio": ("ratio", lambda a: _ratio(
        len(a.distinct_forms), a.calls.get("graphs.canonical_marked", 0))),
    "machines.signature_states": ("count", lambda a: a.count["signature_states"]),
    "levels.self_s": ("s", lambda a: a.self_time("levels.")),
    "boundary.self_s": ("s", lambda a: a.self_time("boundary.")),
    "fileio.load_ms": ("ms", lambda a: 1000 * (
        a.total.get("fileio.load_machine", 0.0) + a.total.get("fileio.load_group", 0.0))),
    "fileio.dump_json_ms": ("ms", lambda a: 1000 * a.total.get("fileio.dump_json", 0.0)),
    "fileio.json_bytes": ("bytes", lambda a: a.count["json_bytes"]),
    "cli.self_ms": ("ms", lambda a: 1000 * a.self_time("cli.")),
})


# Counts taken from results, at the boundary where the work happens.
def _on_component_raw(agg, result):
    agg.count["component_vertices"] += len(result[0])


def _on_canonical(agg, result):
    agg.distinct_forms.add(hash(result))


def _on_relation(agg, result):
    agg.count["relations_found"] += bool(result)


def _on_signature(agg, result):
    agg.count["signature_states"] += len(result)


def _on_dump(agg, result):
    agg.count["json_bytes"] += len(result)


ON_RESULT = {
    "levels._component_raw": _on_component_raw,
    "graphs.canonical_marked": _on_canonical,
    "levels.is_group_relation_up_to": _on_relation,
    "machines.action_signature": _on_signature,
    "fileio.dump_json": _on_dump,
}


class Aggregate:
    """Per-pass sums over spans: time, self time and calls per span name."""

    def __init__(self):
        self.total = {}
        self.self_total = {}
        self.calls = {}
        self.count = {"component_vertices": 0, "relations_found": 0,
                      "signature_states": 0, "json_bytes": 0}
        self.distinct_forms = set()

    def self_time(self, prefix):
        return sum(v for k, v in self.self_total.items() if k.startswith(prefix))

    def metrics(self):
        return {name: fn(self) for name, (_, fn) in PER_LAYER.items()}


class Tracer:
    """Installs span wrappers and records spans of the current job."""

    def __init__(self):
        self.spans = []  # (job, span id, parent span id, name, start, end)
        self.job = None
        self.stack = []  # [span id, time covered by child spans]
        self.agg = Aggregate()
        self._saved = []
        self._next = 0

    def install(self):
        self.agg = Aggregate()
        for name, module, attr, importers in TARGETS:
            mod = importlib.import_module("mealyforge." + module)
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(mod, owner) if owner else mod
            original = getattr(holder, leaf)
            wrapped = self._wrap(name, original)
            places = [holder] + [importlib.import_module("mealyforge." + m) for m in importers]
            for place in places:
                self._saved.append((place, leaf, getattr(place, leaf)))
                setattr(place, leaf, wrapped)

    def uninstall(self):
        for place, leaf, value in reversed(self._saved):
            setattr(place, leaf, value)
        self._saved = []
        return self.agg

    def _wrap(self, name, fn):
        tracer = self
        on_result = ON_RESULT.get(name)

        def span(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][0] if stack else None
            sid = tracer._next
            tracer._next += 1
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                agg = tracer.agg
                agg.total[name] = agg.total.get(name, 0.0) + duration
                agg.self_total[name] = agg.self_total.get(name, 0.0) + duration - frame[1]
                agg.calls[name] = agg.calls.get(name, 0) + 1
                tracer.spans.append((tracer.job, sid, parent, name, start, end))
            if on_result is not None:
                on_result(agg, result)
            return result

        span.__wrapped__ = fn
        return span

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for job, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps([job, sid, parent, name, round(start, 7), round(end, 7)]))
                fh.write("\n")
