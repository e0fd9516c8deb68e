"""Spans around the program's layer boundaries, for traced runs only.

`Tracer.install()` rebinds module attributes of the functions listed in
WRAPPED to timing wrappers.  A name one module imported from another (say
`rigidity.check_valid`) is rebound too, so calls inside the package are
traced as well.  Nothing under `src/` changes; `uninstall()` puts every
original back.

Each span records name, start, end, parent span and op id, in flat arrays
kept in memory; `dump()` writes them out when the run ends.  A function that
returns a generator gets one more span, `<name>.next`, per item it yields.
"""
from __future__ import annotations

import fnmatch
import functools
import inspect
import json
import sys
import time
import types
from array import array
from collections import Counter, defaultdict

import metrics

LAYERS = ("cli", "parser", "indices", "projections", "rigidity", "multirigid", "chow", "restriction")

# What each module gets wrapped: patterns over the plain functions it defines,
# or "Class.method".  Helpers inside indices are left alone: they are called
# millions of times and belong to no layer boundary.
WRAPPED = {
    "cli": ["main", "build_parser", "cmd_*"],
    "parser": ["parse_index", "parse_space", "parse_sequence"],
    "indices": [
        "validate", "check_valid", "enumerate_indices", "SpaceDescriptor.__post_init__",
        "render_literal", "index_to_json", "SpaceDescriptor.render",
        "SchubertIndex.render", "SchubertIndex.to_json", "ChowClass.render", "ChowClass.to_json",
    ],
    "projections": ["*"],
    "rigidity": ["*"],
    "multirigid": ["*"],
    "chow": ["*"],
    "restriction": ["*"],
}
RENDER = {
    "indices.render_literal", "indices.index_to_json", "indices.SpaceDescriptor.render",
    "indices.SchubertIndex.render", "indices.SchubertIndex.to_json",
    "indices.ChowClass.render", "indices.ChowClass.to_json",
}
PUSHFORWARD = {"projections.pushforward_flag", "projections.pushforward_pair_flag"}
DESCRIPTOR = "indices.SpaceDescriptor.__post_init__"
KINDS = ("G", "F", "OG", "OF", "SG", "SF")

RAISED, TRUTHY = 1, 2


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.flags = array("B")
        self.raised = {}  # span -> type name of the exception it raised
        self.stack = [-1]
        self.op_id = -1
        self._patches = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.flags.append(0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i, flags, exc=None):
        self.end[i] = time.perf_counter()
        self.stack.pop()
        self.flags[i] = flags
        if exc is not None:
            self.raised[i] = type(exc).__name__

    def wrap(self, name, fn):
        nid, next_id = self._id(name), self._id(name + ".next")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(i, RAISED, exc)
                raise
            self._close(i, TRUTHY if result else 0)
            if isinstance(result, types.GeneratorType):
                return self._iterate(next_id, result)
            return result

        return traced

    def _iterate(self, nid, gen):
        while True:
            i = self._open(nid)
            try:
                item = next(gen)
            except StopIteration:
                self._close(i, 0)
                return
            except BaseException as exc:
                self._close(i, RAISED, exc)
                raise
            self._close(i, TRUTHY)
            yield item

    def install(self, package="schubrigid"):
        modules = [m for n, m in sorted(sys.modules.items()) if n == package or n.startswith(package + ".")]
        for short, patterns in WRAPPED.items():
            module = sys.modules["%s.%s" % (package, short)]
            for attr, owner, fn in _targets(module, patterns):
                wrapped = self.wrap("%s.%s" % (short, attr), fn)
                if owner is not None:
                    self._patch(owner, attr.split(".", 1)[1], wrapped)
                    continue
                for other in modules:
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            self._patch(other, key, wrapped)

    def _patch(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self):
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def dump(self, path):
        """Write the spans: a JSON header and the raw columns beside it."""
        columns = ("name", "start", "end", "parent", "op", "flags")
        header = {
            "names": self.names,
            "count": len(self.start),
            "columns": [[c, getattr(self, c).typecode] for c in columns],
            "raised": {str(i): t for i, t in self.raised.items()},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.with_suffix(".json").write_text(json.dumps(header))
        with open(path.with_suffix(".bin"), "wb") as fh:
            for c in columns:
                getattr(self, c).tofile(fh)


def _targets(module, patterns):
    """(attribute, owning class or None, function) for every wrapped name."""
    for pattern in patterns:
        if "." in pattern:
            cls_name, method = pattern.split(".")
            cls = getattr(module, cls_name)
            yield pattern, cls, vars(cls)[method]
            continue
        for attr, value in sorted(vars(module).items()):
            if (
                fnmatch.fnmatchcase(attr, pattern)
                and inspect.isfunction(value)
                and value.__module__ == module.__name__
            ):
                yield attr, None, value


def layer_metrics(tracer, ops):
    """Per-layer metrics of one traced pass; op id i is `ops[i]`."""
    names = tracer.names
    layer = [n.split(".", 1)[0] for n in names]
    self_s = metrics.self_times(tracer.start, tracer.end, tracer.parent)
    calls, truthy, busy = Counter(), Counter(), defaultdict(float)
    layer_busy, entries, unsupported = defaultdict(float), Counter(), 0
    per_op = defaultdict(Counter)
    for i in range(len(self_s)):
        name = names[tracer.name[i]]
        own = layer[tracer.name[i]]
        calls[name] += 1
        busy[name] += self_s[i]
        layer_busy[own] += self_s[i]
        if tracer.flags[i] & TRUTHY:
            truthy[name] += 1
        p = tracer.parent[i]
        if p < 0 or layer[tracer.name[p]] != own:
            entries[own] += 1
            if own == "restriction" and tracer.raised.get(i) == "UnsupportedDegenerationError":
                unsupported += 1
        if name == "indices.validate" or name in PUSHFORWARD or name == DESCRIPTOR:
            per_op[tracer.op[i]][name] += 1

    def ratio(a, b):
        return a / b if b else 0.0

    validate = calls["indices.validate"]
    classify = calls["rigidity.classify"]
    lr = calls["chow.lr_coefficient"]
    out = {
        "cli.main.calls": (calls["cli.main"], "count"),
        "cli.build_parser.self_s": (busy["cli.build_parser"], "s"),
        "parser.calls": (entries["parser"], "count"),
        "indices.validate.calls": (validate, "count"),
        "indices.validate.self_s": (busy["indices.validate"], "s"),
        "indices.space_descriptor.count": (calls[DESCRIPTOR], "count"),
        "indices.enumerate.yielded": (truthy["indices.enumerate_indices.next"], "count"),
        "indices.enumerate.self_s": (
            busy["indices.enumerate_indices"] + busy["indices.enumerate_indices.next"], "s"),
        "indices.render.self_s": (sum(busy[n] for n in RENDER), "s"),
        "projections.pushforward.calls": (sum(calls[n] for n in PUSHFORWARD), "count"),
        "rigidity.classify.calls": (classify, "count"),
        "rigidity.essential.calls": (
            sum(c for n, c in calls.items() if n.startswith("rigidity.essential_")), "count"),
        "rigidity.closure.calls": (calls["rigidity._close_and_grade"], "count"),
        "rigidity.closure.self_s": (busy["rigidity._close_and_grade"], "s"),
        "rigidity.validate_per_class": (ratio(validate, classify), "ratio"),
        "multirigid.calls": (entries["multirigid"], "count"),
        "chow.product.calls": (calls["chow.product_indices"], "count"),
        "chow.lr_coefficient.calls": (lr, "count"),
        "chow.lr_nonzero": (truthy["chow.lr_coefficient"], "count"),
        "chow.lr_useful_ratio": (ratio(truthy["chow.lr_coefficient"], lr), "ratio"),
        "restriction.calls": (entries["restriction"], "count"),
        "restriction.degenerate_step.calls": (calls["restriction.degenerate_step"], "count"),
        "restriction.unsupported_share": (ratio(unsupported, entries["restriction"]), "ratio"),
    }
    for name in LAYERS:
        out["%s.self_s" % name] = (layer_busy[name], "s")
    weight, counted = Counter(), defaultdict(Counter)
    for i, op in enumerate(ops):
        weight[op.kind] += op.weight
        counted[op.kind].update(per_op[i])
    for kind in KINDS:
        c = counted[kind]
        out["%s.validate_per_op" % kind] = (ratio(c["indices.validate"], weight[kind]), "count/op")
        out["%s.pushforward_per_op" % kind] = (
            ratio(sum(c[n] for n in PUSHFORWARD), weight[kind]), "count/op")
        out["%s.descriptor_per_op" % kind] = (ratio(c[DESCRIPTOR], weight[kind]), "count/op")
    return out
