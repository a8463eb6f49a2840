"""Span tracing around the public functions of each ``renyi`` layer.

``Tracer.install`` wraps every public function (and the constructor of every
public non-dataclass class) defined in the layer modules, then rebinds each
wrapper in every ``renyi.*`` namespace that imported the original, so calls
between modules go through the wrapper too.  Suite generators and checks are
private functions reached through the public ``harness.SUITES`` dict, so they
are wrapped there.  A layer function that no longer exists is simply not
traced.  Spans stay in memory, with parent links, until ``summary`` computes
inclusive and self time from them; ``uninstall`` restores every binding.
"""

from __future__ import annotations

import dataclasses
import enum
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("linalg", "quantum", "classical", "divergence", "harness", "fileformat", "cli")

_TAG_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _dim(args, kwargs):
    return int(np.shape(_first_arg(args, kwargs, "matrix"))[0])


def _d_b(args, kwargs):
    return int(_first_arg(args, kwargs, "rho_ab").dims[1])


def _matrix_bytes(args, kwargs):
    return 16 * int(np.shape(_first_arg(args, kwargs, "matrix"))[0]) ** 2


def _payload_bytes(args, kwargs):
    return 16 * int(_first_arg(args, kwargs, "obj")["dim"]) ** 2


def _vector_bytes(args, kwargs):
    return 8 * int(np.size(_first_arg(args, kwargs, "p")))


def _dist_payload_bytes(args, kwargs):
    return 8 * len(_first_arg(args, kwargs, "obj")["p"])


# Span tags: matrix size per decomposition, d_B per optimized call, and the
# computed array bytes (16 per complex entry, 8 per probability) that pass
# through the payload layer.
TAGGERS = {
    "linalg.spectral_decompose": _dim,
    "divergence.mutual_information": _d_b,
    "divergence.conditional_entropy": _d_b,
    "fileformat.matrix_payload": _matrix_bytes,
    "fileformat.matrix_from_payload": _payload_bytes,
    "fileformat.distribution_payload": _vector_bytes,
    "fileformat.distribution_from_payload": _dist_payload_bytes,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tags: dict[int, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, tags, tagger = self._stack, self.tags, TAGGERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
                if tagger is not None:
                    try:
                        tags[i] = tagger(args, kwargs)
                    except _TAG_ERRORS:
                        pass

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        wrappers: dict[int, tuple] = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"renyi.{layer}")
            except ModuleNotFoundError:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
                elif _has_own_init(obj):
                    self._set(obj, "__init__", self.wrap(f"{layer}.{attr}", obj.__init__))
        for modname, mod in list(sys.modules.items()):
            if modname != "renyi" and not modname.startswith("renyi."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        suites = getattr(sys.modules.get("renyi.harness"), "SUITES", {})
        for sname, suite in list(suites.items()):
            if dataclasses.is_dataclass(suite):
                traced = dataclasses.replace(
                    suite,
                    gen=self.wrap(f"harness.gen.{sname}", suite.gen),
                    check=self.wrap(f"harness.check.{sname}", suite.check),
                )
                self._undo.append((suites, sname, suite, True))
                suites[sname] = traced

    def _set(self, obj, attr, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr), False))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            obj, key, old, is_item = self._undo.pop()
            if is_item:
                obj[key] = old
            else:
                setattr(obj, key, old)

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, tag sums."""
        n = len(self.start)
        if n == 0:
            return {"names": {}, "tags": {}}
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        child = np.zeros(n)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=dur, minlength=k)
        own = np.bincount(name_id, weights=dur - child, minlength=k)
        names = {
            name: [int(calls[i]), float(total[i]), float(own[i])]
            for i, name in enumerate(self.names)
            if calls[i]
        }
        tags: dict[str, list] = {}
        for i, tag in self.tags.items():
            entry = tags.setdefault(f"{self.names[name_id[i]]}|{tag}", [0, 0.0])
            entry[0] += 1
            entry[1] += float(dur[i])
        return {"names": names, "tags": tags}


def _has_own_init(obj) -> bool:
    return (
        inspect.isclass(obj)
        and "__init__" in vars(obj)
        and not dataclasses.is_dataclass(obj)
        and not issubclass(obj, (BaseException, enum.Enum))
    )


def merge(into: dict, summary: dict) -> dict:
    """Add one summary's counts and times into another (for child processes)."""
    for key in ("names", "tags"):
        dst = into.setdefault(key, {})
        for name, row in summary.get(key, {}).items():
            cur = dst.setdefault(name, [0] * len(row))
            for j, x in enumerate(row):
                cur[j] += x
    return into
