"""Layer spans and work counters, recorded from outside the library.

A layer is one `beurling` module.  `install` rebinds every public function
of each module, in its own namespace and in every namespace that imported
it (for example `perron.prime_power_table` or `mellin.partition_F`), to a
wrapper that opens a span.  A call made while a span of the same layer is
innermost only counts as a call: spans mark layer boundaries, and this keeps
tight loops such as `orders.f_k` cheap to trace.

Counters hook a few private helpers and methods without opening spans:
the enumeration walks, `GIntegerStream.__next__` (timed as a counting span
but not stored, since it runs once per item), `GPrimeSystem.__post_init__`
and `OrderOracle.compare`.  Spans stay in memory in flat arrays and are
written once, by `write_spans`, when the run ends.
"""
from __future__ import annotations

import importlib
import inspect
import json
from array import array
from time import perf_counter

LAYERS = ("systems", "counting", "zeta", "perron", "mellin", "orders", "cli")

# lru caches read through cache_info(); absent caches are skipped
CACHES = {
    "mellin.values_cache_hit_ratio": ("mellin", "_cached_values"),
    "zeta.psi_profile_cache_hit_ratio": ("zeta", "_psi_profile"),
}


class Tracer:
    def __init__(self):
        self.op = -1  # id of the benchmark op being run; spans carry it
        self._stack: list[list] = []  # open frames: [layer, child_time, span_id]
        self._depth = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.busy = dict.fromkeys(LAYERS, 0.0)
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.counts: dict[str, int] = {}
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._span_op = array("l")
        self._span_parent = array("l")
        self._span_name = array("l")
        self._span_t0 = array("d")
        self._span_t1 = array("d")
        self._cache_start: dict[str, tuple[int, int]] = {}

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, layer: str, name: str, fn, hook=None, record: bool = True):
        """Wrapper opening a `layer` span around fn; hook(result) counts work."""
        stack, depth = self._stack, self._depth
        calls, busy, self_time = self.calls, self.busy, self.self_time
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        name_id = self._name_ids[name]

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                if record:
                    calls[layer] += 1
                out = fn(*args, **kwargs)
                if hook is not None:
                    hook(out)
                return out
            span = -1
            if record:
                calls[layer] += 1
                span = len(self._span_t0)
                self._span_op.append(self.op)
                self._span_parent.append(stack[-1][2] if stack else -1)
                self._span_name.append(name_id)
                self._span_t1.append(0.0)
            frame = [layer, 0.0, span]
            stack.append(frame)
            depth[layer] += 1
            t0 = perf_counter()
            if record:
                self._span_t0.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[layer] -= 1
                dur = t1 - t0
                self_time[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if depth[layer] == 0:
                    busy[layer] += dur
                if record:
                    self._span_t1[span] = t1
            if hook is not None:
                hook(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def start_caches(self, modules: dict) -> None:
        for key, (layer, attr) in CACHES.items():
            info = _cache_info(modules[layer], attr)
            if info is not None:
                self._cache_start[key] = info

    def summary(self, modules: dict) -> dict:
        caches = {}
        for key, (h0, m0) in self._cache_start.items():
            layer, attr = CACHES[key]
            h1, m1 = _cache_info(modules[layer], attr)
            caches[key] = [h1 - h0, m1 - m0]
        return {
            "calls": dict(self.calls),
            "busy_s": dict(self.busy),
            "self_s": dict(self.self_time),
            "counts": dict(self.counts),
            "caches": caches,
            "spans": len(self._span_t0),
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for i in range(len(self._span_t0)):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "op": self._span_op[i],
                            "parent": self._span_parent[i],
                            "name": self._names[self._span_name[i]],
                            "start": self._span_t0[i],
                            "end": self._span_t1[i],
                        }
                    )
                    + "\n"
                )


def counter(fn, hook):
    """Wrapper that only counts: hook(args, result) after each call."""

    def counted(*args, **kwargs):
        out = fn(*args, **kwargs)
        hook(args, out)
        return out

    counted.__wrapped__ = fn
    return counted


def _cache_info(module, attr: str):
    info = getattr(getattr(module, attr, None), "cache_info", None)
    if info is None:
        return None
    ci = info()
    return ci.hits, ci.misses


def install(tracer: Tracer) -> dict:
    """Rebind the public functions of every layer; return the layer modules."""
    package = importlib.import_module("beurling")
    modules = {layer: importlib.import_module(f"beurling.{layer}") for layer in LAYERS}
    namespaces = {"beurling": package, **modules}
    counting, zeta, perron = modules["counting"], modules["zeta"], modules["perron"]
    systems, orders = modules["systems"], modules["orders"]

    # hooks on public functions, by (function, importing namespace or None)
    hooks = {
        (modules["mellin"].partition_F, None): lambda out: tracer.add("mellin.partition_calls", 1),
        (perron.perron_psi, None): lambda out: tracer.add("perron.nodes", out.nodes),
        (counting.prime_power_table, "perron"): lambda out: tracer.add(
            "perron.prime_powers", len(out[0])
        ),
    }
    for layer, mod in modules.items():
        for name, fn in list(vars(mod).items()):
            if name.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != mod.__name__:
                continue
            for ns_name, ns in namespaces.items():
                for alias, value in list(vars(ns).items()):
                    if value is fn:
                        hook = hooks.get((fn, ns_name)) or hooks.get((fn, None))
                        setattr(ns, alias, tracer.wrap(layer, f"{layer}.{name}", fn, hook))

    # private enumeration walks, wherever they were imported
    walks = {
        counting._count_leq: lambda args, out: tracer.add("counting.gintegers_counted", out),
        counting._collect_logs_leq: lambda args, out: tracer.add(
            "counting.gintegers_materialised", len(out)
        ),
        zeta._power_sum_leq: lambda args, out: tracer.add("counting.gintegers_counted", out[1]),
    }
    for ns in namespaces.values():
        for alias, value in list(vars(ns).items()):
            if inspect.isfunction(value) and value in walks:
                setattr(ns, alias, counter(value, walks[value]))

    stream = counting.GIntegerStream
    stream.__next__ = tracer.wrap(
        "counting",
        "counting.GIntegerStream.__next__",
        stream.__next__,
        hook=lambda out: tracer.add("counting.stream_items", 1),
        record=False,
    )
    system_cls = systems.GPrimeSystem
    system_cls.__post_init__ = counter(
        system_cls.__post_init__,
        lambda args, out: tracer.add("systems.primes_built", len(args[0].primes)),
    )
    for cls in vars(orders).values():
        if inspect.isclass(cls) and issubclass(cls, orders.OrderOracle) and "compare" in vars(cls):
            cls.compare = counter(
                cls.compare, lambda args, out: tracer.add("orders.compares", 1)
            )
    tracer.start_caches(modules)
    return modules
