"""In-memory span tracer that wraps the package's layer entry points.

Tracing is done from the benchmark only: ``Tracer.install`` replaces each
listed function in *every* ``osdlat`` module namespace that holds it
(``scenarios`` and ``codecsim`` keep their own ``required_snr`` binding,
``cli`` holds ``max_order`` and friends), so calls cannot escape their
span.  ``uninstall`` puts the originals back.  Nothing under ``src/`` is
edited.

Spans nest on a stack.  A span's self time is its duration minus the
durations of its direct children; since spans on one thread never
overlap, the self times of all spans under a root span add up to the
root's duration.  Spans are kept in memory and written out once, after
the traced pass.  Worker processes forked by the Monte Carlo pool stop
recording at fork, so their spans are not captured.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
from dataclasses import dataclass, field

# (module, function, span name).  Span names drop a leading underscore so
# that they are valid metric names.  CLI formatting (ioutil) is left inside
# cli.main, and the domain functions the CLI calls directly (build_ebch,
# complexity_report, penalty_to_complexity) get spans, so that cli.main's
# self time is argument parsing plus CSV/JSON emission.
LAYER_FUNCTIONS = (
    ("osdlat.cli", "main", "cli.main"),
    ("osdlat.scenarios", "max_rate_curve", "scenarios.max_rate_curve"),
    ("osdlat.scenarios", "maximize_k", "scenarios.maximize_k"),
    ("osdlat.scenarios", "minimize_latency", "scenarios.minimize_latency"),
    ("osdlat.tradeoff", "complexity_to_penalty", "tradeoff.complexity_to_penalty"),
    ("osdlat.tradeoff", "penalty_to_complexity", "tradeoff.penalty_to_complexity"),
    ("osdlat.oscomplexity", "max_order", "oscomplexity.max_order"),
    ("osdlat.oscomplexity", "complexity_report", "oscomplexity.complexity_report"),
    ("osdlat.fblmath", "required_snr", "fblmath.required_snr"),
    ("osdlat.fblmath", "q_inv", "fblmath.q_inv"),
    ("osdlat.fblmath", "_info_density_stats", "fblmath.info_density_stats"),
    ("osdlat.codecsim", "build_ebch", "codecsim.build_ebch"),
    ("osdlat.codecsim", "required_snr_sim", "codecsim.required_snr_sim"),
    ("osdlat.codecsim", "estimate_bler", "codecsim.estimate_bler"),
    ("osdlat.codecsim", "encode", "codecsim.encode"),
    ("osdlat.codecsim", "transmit", "codecsim.transmit"),
    ("osdlat.codecsim", "osd_decode", "codecsim.osd_decode"),
    ("osdlat.codecsim", "message_from_codeword", "codecsim.message_from_codeword"),
    ("osdlat._gf2", "systematic_with_permutation", "gf2.systematic_with_permutation"),
)
ROOT = "bench.traced_pass"
DECODE = "codecsim.osd_decode"
ELIMINATION = "gf2.systematic_with_permutation"

_ACTIVE: list["Tracer"] = []


def _stop_in_forked_child() -> None:
    for tracer in _ACTIVE:
        tracer.recording = False


os.register_at_fork(after_in_child=_stop_in_forked_child)


@dataclass
class McCounts:
    """Decoder work read from the OsdStats objects estimate_bler carries."""

    decodes: int = 0
    patterns: int = 0
    model_patterns: int = 0
    sweep_trials: int = 0
    accepted_trials: int = 0
    # "64x36_s1" -> [elimination ns inside decodes, decode ns]
    decode_split: dict = field(default_factory=dict)


class Tracer:
    """Per-span call counts and self times, the span records, and the
    decoder counters read through the estimate_bler and sweep hooks."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT] + [span for _, _, span in LAYER_FUNCTIONS]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        # finished spans: (name id, parent record index, start ns, end ns)
        self.records: list[tuple[int, int, int, int] | None] = []
        self._stack: list[list[int]] = []  # [record index, name id, start, child ns]
        self._patched: list[tuple[object, str, object]] = []
        self._decode_depth = 0
        self._context: str | None = None  # code and order of the running estimate_bler
        self.cache_stats: dict[str, tuple[int, int]] = {}
        self.mc = McCounts()
        self.recording = True
        self._decode_id = self._ids[DECODE]
        self._elim_id = self._ids[ELIMINATION]
        self._originals: dict[str, object] = {}
        self._cache_before: dict[str, tuple[int, int]] = {}

    # -- spans --------------------------------------------------------------

    def enter(self, nid: int) -> None:
        self._stack.append([len(self.records), nid, time.perf_counter_ns(), 0])
        self.records.append(None)
        if nid == self._decode_id:
            self._decode_depth += 1

    def exit(self) -> None:
        end = time.perf_counter_ns()
        idx, nid, start, child = self._stack.pop()
        dur = end - start
        parent = -1
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        self.records[idx] = (nid, parent, start, end)
        self.calls[nid] += 1
        self.self_ns[nid] += dur - child
        if nid == self._decode_id:
            self._decode_depth -= 1
            self._split()[1] += dur
        elif nid == self._elim_id and self._decode_depth:
            self._split()[0] += dur

    def _split(self) -> list[int]:
        return self.mc.decode_split.setdefault(self._context, [0, 0])

    @contextlib.contextmanager
    def root(self):
        """The span every traced call nests under."""
        self.enter(0)
        try:
            yield
        finally:
            self.exit()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, span: str):
        nid = self._ids[span]
        tracer = self
        hook = {
            "codecsim.estimate_bler": self._estimate_bler_hook,
            "codecsim.required_snr_sim": self._sweep_hook,
        }.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            tracer.enter(nid)
            try:
                if hook is not None:
                    return hook(fn, args, kwargs)
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return traced

    def _estimate_bler_hook(self, fn, args, kwargs):
        from osdlat.codecsim import OsdStats
        from osdlat.oscomplexity import pattern_count

        bound = inspect.signature(fn).bind(*args, **kwargs)
        code, order = bound.arguments["code"], bound.arguments["order"]
        stats = bound.arguments.get("stats")
        if stats is None:
            stats = bound.arguments["stats"] = OsdStats()
        before = (stats.decodes, stats.patterns_evaluated)
        outer, self._context = self._context, f"{code.n}x{code.k}_s{order}"
        try:
            result = fn(*bound.args, **bound.kwargs)
        finally:
            self._context = outer
        decodes = stats.decodes - before[0]
        self.mc.decodes += decodes
        self.mc.patterns += stats.patterns_evaluated - before[1]
        self.mc.model_patterns += decodes * pattern_count(code.k, order)
        return result

    def _sweep_hook(self, fn, args, kwargs):
        result = fn(*args, **kwargs)
        trials = [obs.trials for obs in result.sweep]
        self.mc.sweep_trials += sum(trials)
        if result.reached:
            self.mc.accepted_trials += trials[-1]
        return result

    def install(self) -> None:
        """Wrap every listed function in every osdlat namespace binding it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "osdlat" or name.startswith("osdlat."))]
        for module_name, attr, span in LAYER_FUNCTIONS:
            owner = sys.modules.get(module_name)
            original = getattr(owner, attr, None)
            if original is None:
                continue  # layer function no longer exists: its metrics read 0
            self._originals[span] = original
            wrapper = self._wrap(original, span)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))
        self._cache_before = self._cache_infos()
        _ACTIVE.append(self)

    def uninstall(self) -> None:
        after = self._cache_infos()
        for name, (hits, misses) in after.items():
            h0, m0 = self._cache_before.get(name, (0, 0))
            self.cache_stats[name] = (hits - h0, misses - m0)
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()
        _ACTIVE.remove(self)

    def _cache_infos(self) -> dict[str, tuple[int, int]]:
        infos = {}
        for span, fn in self._originals.items():
            if hasattr(fn, "cache_info"):
                info = fn.cache_info()
                infos[span] = (info.hits, info.misses)
        return infos

    # -- results ------------------------------------------------------------

    def mean_self(self, span: str, scale: float) -> float:
        nid = self._ids[span]
        return self.self_ns[nid] / self.calls[nid] / 1e9 * scale if self.calls[nid] else 0.0

    def count(self, span: str) -> int:
        return self.calls[self._ids[span]]

    def total_self_ns(self) -> int:
        return sum(self.self_ns)

    def write(self, path) -> None:
        """Write the spans as compressed columns plus the name table."""
        import numpy as np

        done = [r for r in self.records if r is not None]
        cols = np.array(done, dtype=np.int64).reshape(-1, 4)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=cols[:, 0],
            parent=cols[:, 1],
            start_ns=cols[:, 2],
            end_ns=cols[:, 3],
        )
