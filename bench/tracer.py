"""Outside-in layer trace for the benchmark's traced run.

``Tracer.install()`` replaces public functions and methods of algconn with
wrappers that time each call. It patches every name in every loaded algconn
module that is bound to the original object, so callers that imported the
name see the wrapper too. Nothing under ``src/`` changes.

Each call is a span. A span adds its duration to its parent's child time, so
its self time is its duration minus the part its child spans cover. Spans
are aggregated per name as they close (calls, total, self) rather than kept
one by one, because ``LaurentMatrix.__matmul__`` alone runs hundreds of
thousands of times per run.

Memo counters are read from the ``functools.lru_cache`` wrappers with
``getattr``. A private memo that a later version removes is reported as
missing instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute or Class.method, span name)
TARGETS = [
    ("algconn.exact_core", "LaurentMatrix.det", "exact_core.det"),
    ("algconn.exact_core", "LaurentMatrix.__matmul__", "exact_core.matmul"),
    ("algconn.exact_core", "unit_inverse", "exact_core.unit_inverse"),
    ("algconn.exact_core", "laurent_parse", "exact_core.laurent_parse"),
    ("algconn.p1_engine", "P1Bundle.__post_init__", "p1_engine.bundle_init"),
    ("algconn.p1_engine", "birkhoff_split", "p1_engine.birkhoff_split"),
    ("algconn.p1_engine", "SplittingData.verify", "p1_engine.split_verify"),
    ("algconn.p1_engine", "global_sections", "p1_engine.global_sections"),
    ("algconn.p1_engine", "dual_bundle", "p1_engine.dual_bundle"),
    ("algconn.jet_obstruction", "obstruction_cocycle", "jet_obstruction.obstruction_cocycle"),
    ("algconn.jet_obstruction", "split_coboundary", "jet_obstruction.split_coboundary"),
    ("algconn.jet_obstruction", "construct_connection", "jet_obstruction.construct_connection"),
    ("algconn.jet_obstruction", "verify_connection", "jet_obstruction.verify_connection"),
    ("algconn.jet_obstruction", "jetV_transition", "jet_obstruction.jetV_transition"),
    ("algconn.algebroid_decision", "decide_connection", "algebroid_decision.decide_connection"),
    ("algconn.sampling", "run_fuzz", "sampling.run_fuzz"),
    ("algconn.cli", "main", "cli.main"),
]

# Every public function of this module is one span, summed as one layer.
WHOLE_MODULE = "algconn.formal_bundles"

# Private inverse memos: unit_inverse runs behind them, so a cache miss is a
# unit_inverse call and a hit is not.
INVERSE_MEMOS = ("algconn.p1_engine", "algconn.jet_obstruction")

BIRKHOFF_MEMO = ("algconn.p1_engine", "_birkhoff_cached")

# Memo names each layer binds today, for the cache_entries counts.
EXPECTED_MEMOS = {
    "algconn.p1_engine": ("_inverse", "dual_bundle", "tensor_bundle", "hom_bundle",
                          "twist", "_birkhoff_cached"),
    "algconn.jet_obstruction": ("_inverse", "_twisted_end_bundle"),
}

LAYERS = ("exact_core", "p1_engine", "jet_obstruction", "algebroid_decision",
          "formal_bundles", "sampling", "cli")


def _algconn_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "algconn" or name.startswith("algconn."))]


def memo_info(module: str, name: str):
    """cache_info() of a memo, or None when the memo no longer exists."""
    info = getattr(getattr(sys.modules.get(module), name, None), "cache_info", None)
    return info() if callable(info) else None


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # span name -> [calls, total_s, self_s]
        self.errors = dict.fromkeys(LAYERS, 0)
        self.missing: list[str] = []
        self._stack = [0.0]  # child time of each open span; the bottom is the caller
        self._undo: list[tuple] = []
        info = memo_info(*BIRKHOFF_MEMO)
        self._birkhoff_base = (info.hits, info.misses) if info else (0, 0)  # before tracing

    # -- spans ----------------------------------------------------------------

    def _close(self, name: str, t0: float) -> None:
        dt = time.perf_counter() - t0
        child = self._stack.pop()
        self._stack[-1] += dt
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dt
        st[2] += dt - child

    def _error(self, name: str, exc: Exception) -> None:
        # count an exception once, in the innermost span it leaves
        if not getattr(exc, "_bench_counted", False):
            exc._bench_counted = True
            self.errors[name.split(".")[0]] += 1

    def span(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self._error(name, exc)
                raise
            finally:
                self._close(name, t0)

        return traced

    def memo_span(self, name: str, cached):
        """A span that is kept only when the memo missed, i.e. when the
        wrapped function really ran; a hit's time stays with the caller."""
        stack = self._stack

        def traced(*args):
            misses = cached.cache_info().misses
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return cached(*args)
            except Exception as exc:
                self._error(name, exc)
                raise
            finally:
                if cached.cache_info().misses != misses:
                    self._close(name, t0)
                else:
                    stack.pop()

        return traced

    # -- patching -------------------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        for module in _algconn_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> "Tracer":
        for modname, path, name in TARGETS:
            module = sys.modules.get(modname)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{modname}.{path}")
                continue
            wrapper = self.span(name, original)
            if owner_name:
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                self._replace(original, wrapper)
        module = sys.modules.get(WHOLE_MODULE)
        for attr, value in list(vars(module).items()):
            if (callable(value) and not attr.startswith("_") and not isinstance(value, type)
                    and getattr(value, "__module__", None) == WHOLE_MODULE):
                self._replace(value, self.span(f"formal_bundles.{attr}", value))
        for modname in INVERSE_MEMOS:
            cached = getattr(sys.modules.get(modname), "_inverse", None)
            if callable(getattr(cached, "cache_info", None)):
                self._replace(cached, self.memo_span("exact_core.unit_inverse", cached))
            else:
                self.missing.append(f"{modname}._inverse")
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain counts for one process, to be merged with ``merge``."""
        memos = {}
        for modname, names in EXPECTED_MEMOS.items():
            entries = 0
            for memo in names:
                info = memo_info(modname, memo)
                if info is None:
                    self.missing.append(f"{modname}.{memo}")
                else:
                    entries += info.currsize
            memos[modname.split(".")[1]] = entries
        info = memo_info(*BIRKHOFF_MEMO)
        return {
            "stats": self.stats,
            "errors": self.errors,
            "cache_entries": memos,
            "birkhoff": ([info.hits - self._birkhoff_base[0], info.misses - self._birkhoff_base[1]]
                         if info else [0, 0]),
            "missing": sorted(set(self.missing)),
        }


def merge(snapshots: list) -> dict:
    """Sum spans, errors and memo counters over processes; cache sizes take
    the largest one process reached."""
    out = {"stats": {}, "errors": dict.fromkeys(LAYERS, 0),
           "cache_entries": {"p1_engine": 0, "jet_obstruction": 0},
           "birkhoff": [0, 0], "missing": set()}
    for snap in snapshots:
        for name, (calls, total, own) in snap["stats"].items():
            st = out["stats"].setdefault(name, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += total
            st[2] += own
        for layer, n in snap["errors"].items():
            out["errors"][layer] += n
        for layer, n in snap["cache_entries"].items():
            out["cache_entries"][layer] = max(out["cache_entries"][layer], n)
        out["birkhoff"] = [a + b for a, b in zip(out["birkhoff"], snap["birkhoff"])]
        out["missing"].update(snap["missing"])
    out["missing"] = sorted(out["missing"])
    return out


def layer_metrics(snap: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json from merged counts, as
    name -> (value, unit). cli.import_ms and trace.overhead_ratio are added
    by the caller, which measures them."""
    stats = snap["stats"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def self_ms(name):
        return stats.get(name, [0, 0.0, 0.0])[2] * 1000

    out = {}
    for name in ("exact_core.det", "exact_core.unit_inverse", "p1_engine.bundle_init",
                 "p1_engine.birkhoff_split", "algebroid_decision.decide_connection"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_ms"] = (self_ms(name), "ms")
    for name in ("exact_core.matmul", "exact_core.laurent_parse", "p1_engine.split_verify",
                 "p1_engine.global_sections", "p1_engine.dual_bundle",
                 "jet_obstruction.obstruction_cocycle", "jet_obstruction.split_coboundary",
                 "jet_obstruction.construct_connection", "jet_obstruction.verify_connection",
                 "jet_obstruction.jetV_transition", "sampling.run_fuzz", "cli.main"):
        out[f"{name}.self_ms"] = (self_ms(name), "ms")
    out["formal_bundles.self_ms"] = (
        sum(v[2] for k, v in stats.items() if k.startswith("formal_bundles.")) * 1000, "ms")
    hits, misses = snap["birkhoff"]
    out["p1_engine.birkhoff_cache.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0,
                                                 "ratio")
    for layer, n in snap["cache_entries"].items():
        out[f"{layer}.cache_entries"] = (n, "count")
    for layer, n in snap["errors"].items():
        out[f"{layer}.errors"] = (n, "count")
    return out
