"""Spans around the calls into each bdcs module, installed from outside.

The tracer replaces each public function named in TARGETS, in every module
namespace that binds it, with a wrapper that records a span (name, start,
end, parent) and keeps the call's arguments and result until the round is
analysed. Spans stay in memory and are written out at the end of the run.
A layer's self time is its spans' duration minus the part their children
cover; nothing in the program is changed on disk.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import types
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import checks

PURSUIT_KINDS = ("somp_polar", "bsomp_angular", "bsomp_polar")
ROOT = "bench.sweep"


def _pursuit_kind(measurement, obs, cfg, si=None):
    if measurement.dictionary.domain == "angular":
        return "recovery.bsomp_angular"
    if cfg.partition is not None and cfg.partition.uniform_length == 1:
        return "recovery.somp_polar"
    return "recovery.bsomp_polar"


def _hybrid_kind(f_opt, dictionary, num_rf_chains, cfg=None):
    return f"precoding.hybrid_{dictionary.domain}"


TARGETS = {
    "synthesize_channel": "channel.synthesize",
    "synthesize_matrix_channel": "channel.synthesize",
    "build_angular_dictionary": "dictionaries.build",
    "build_polar_dictionary": "dictionaries.build",
    "measurement_matrix": "sensing.measurement",
    "observe": "sensing.observe",
    "ls_estimate": "recovery.ls",
    "bsomp": _pursuit_kind,
    "nmse": "recovery.nmse",
    "complete_bdcs": "partition.complete_bdcs",
    "optimal_precoder": "precoding.optimal",
    "block_sparse_precoding": _hybrid_kind,
    "spectral_efficiency": "precoding.se",
}

PER_LAYER = (
    "bench.self_s",
    "channel.synthesize.calls",
    "channel.synthesize.busy_s",
    "dictionaries.build.busy_s",
    "dictionaries.atoms",
    "sensing.measurement.busy_s",
    "sensing.observe.calls",
    "sensing.observe.busy_s",
    "recovery.ls.calls",
    "recovery.ls.busy_s",
    *(f"recovery.{k}.{m}" for k in PURSUIT_KINDS for m in ("calls", "busy_s", "p50_ms", "selected")),
    "recovery.repeat_calls",
    "recovery.corr_gflop",
    "recovery.nmse.busy_s",
    "partition.complete_bdcs.calls",
    "partition.complete_bdcs.self_s",
    "partition.polar_routed",
    "precoding.optimal.busy_s",
    "precoding.hybrid.calls",
    "precoding.hybrid_angular.busy_s",
    "precoding.hybrid_polar.busy_s",
    "precoding.hybrid.blocks",
    "precoding.se.busy_s",
    "trace.overhead_s",
    "trace.missing",
)


def unit(name: str) -> str:
    for suffix, u in ((".calls", "count"), ("_calls", "count"), ("_s", "s"), ("_ms", "ms"),
                      (".selected", "blocks"), (".blocks", "blocks"), (".atoms", "count"),
                      ("_gflop", "GFLOP"), (".polar_routed", "share"), (".missing", "count")):
        if name.endswith(suffix):
            return u
    raise KeyError(name)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list = []  # [name, start, end, parent index]
        self.calls: list = []  # (span index, public name, args, kwargs, result), this round
        self.missing = sorted(
            name for name in TARGETS
            if name not in package.__all__ or not callable(getattr(package, name, None))
        )
        self._stack: list = []
        self._round_start = 0
        self._durations = defaultdict(list)  # pursuit span name -> call durations, all rounds

    def _wrap(self, public_name, fn, namer):
        spans, stack, calls = self.spans, self._stack, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = namer(*args, **kwargs) if callable(namer) else namer
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            calls.append((idx, public_name, args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap every binding of each target for its traced wrapper."""
        pkg = self.package
        namespaces = {id(vars(pkg)): vars(pkg)}
        for name in pkg.__all__:
            obj = getattr(pkg, name)
            if isinstance(obj, types.FunctionType):
                namespaces.setdefault(id(obj.__globals__), obj.__globals__)
        patches = []
        for name, namer in TARGETS.items():
            if name in self.missing:
                continue
            fn = getattr(pkg, name)
            wrapper = self._wrap(name, fn, namer)
            for ns in namespaces.values():
                for key, value in list(ns.items()):
                    if value is fn:
                        ns[key] = wrapper
                        patches.append((ns, key, fn))
        try:
            yield
        finally:
            for ns, key, fn in reversed(patches):
                ns[key] = fn

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx][1] = start
            self.spans[idx][2] = end

    def finish_round(self):
        """Check every recorded call of the round and return
        (problems, per-layer values of the round, sum of self times)."""
        spans = self.spans[self._round_start:]
        base = self._round_start
        child = defaultdict(float)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self_time = {base + i: (end - start) - child[base + i] for i, (_, start, end, _) in enumerate(spans)}
        duration = {base + i: end - start for i, (_, start, end, _) in enumerate(spans)}

        busy = defaultdict(float)
        count = defaultdict(int)
        for i, (name, _, _, _) in enumerate(spans):
            busy[name] += duration[base + i]
            count[name] += 1

        problems: list = []
        values = defaultdict(float)
        selected = defaultdict(list)
        children = defaultdict(list)  # complete_bdcs span -> nested pursuit results
        seen = set()
        optimal = set()  # ids of SVD precoders; self.calls keeps them alive
        routed = []
        blocks = []
        projected = {}  # id(dictionary) -> atoms phase-projected to modulus 1/sqrt(N_t)
        for idx, public, args, kwargs, result in self.calls:
            bound = inspect.signature(getattr(self.package, public)).bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            if public == "bsomp":
                kind = self.spans[idx][0]
                self._durations[kind].append(duration[idx])
                problems += checks.check_pursuit(a["measurement"], a["obs"], a["cfg"], result)
                selected[kind].append(len(result.support_blocks))
                children[self.spans[idx][3]].append(result)
                cfg, si, phi = a["cfg"], a["si"], a["measurement"].entries
                key = (id(a["obs"]), id(a["measurement"]), cfg.max_blocks,
                       cfg.residual_tolerance, id(cfg.partition), id(si))
                values["recovery.repeat_calls"] += key in seen
                seen.add(key)
                partition = cfg.partition if cfg.partition is not None else a["measurement"].dictionary.partition
                n = len(result.support_blocks)
                decayed = (
                    si is not None and si.decay_floor is not None
                    and 0 < n < min(cfg.max_blocks, partition.num_blocks)
                    and result.final_residual > cfg.residual_tolerance
                )
                k_count = a["obs"].per_subcarrier.shape[0]
                values["recovery.corr_gflop"] += (n + decayed) * 8.0 * phi.shape[0] * phi.shape[1] * k_count / 1e9
            elif public == "ls_estimate":
                problems += checks.check_ls_fit(a["pilot"], a["obs"], result)
            elif public == "complete_bdcs":
                routed.append(result.domain == "polar")
                if a["routing"] == "by_residual":
                    nested = children.get(idx, [])
                    by_domain = {r.domain: r for r in nested}
                    if len(nested) != 2 or set(by_domain) != {"angular", "polar"}:
                        problems.append(f"complete_bdcs ran {len(nested)} nested pursuits, expected one per domain")
                    else:
                        problems += checks.check_routing(result, by_domain["angular"], by_domain["polar"])
            elif public in ("build_angular_dictionary", "build_polar_dictionary"):
                values["dictionaries.atoms"] += result.num_atoms
            elif public == "optimal_precoder":
                optimal.add(id(result))
            elif public == "spectral_efficiency":
                if id(a["precoder"]) in optimal:
                    problems += checks.check_svd_se(
                        a["channel"].matrix, a["precoder"].shape[1], a["snr_db"], result.spectral_efficiency
                    )
            elif public == "block_sparse_precoding":
                problems += checks.check_hybrid(
                    result.f_rf, result.f_bb, a["f_opt"].shape[1], a["num_rf_chains"]
                )
                d = a["dictionary"]
                if id(d) not in projected:
                    projected[id(d)] = np.exp(1j * np.angle(d.atoms)) / np.sqrt(d.num_antennas)
                atom = np.argmax(np.abs(projected[id(d)].conj().T @ result.f_rf), axis=0)
                partition = a["cfg"].partition if a["cfg"] is not None and a["cfg"].partition is not None else d.partition
                blocks.append(len(set(np.searchsorted(partition.starts, atom, side="right") - 1)))

        values["bench.self_s"] = sum(t for i, t in self_time.items() if self.spans[i][0] == ROOT)
        for layer in ("channel.synthesize", "sensing.observe", "recovery.ls", "partition.complete_bdcs"):
            values[f"{layer}.calls"] = count[layer]
        for layer in ("channel.synthesize", "dictionaries.build", "sensing.measurement", "sensing.observe",
                      "recovery.ls", "recovery.nmse", "precoding.optimal", "precoding.hybrid_angular",
                      "precoding.hybrid_polar", "precoding.se"):
            values[f"{layer}.busy_s"] = busy[layer]
        for kind in PURSUIT_KINDS:
            name = f"recovery.{kind}"
            values[f"{name}.calls"] = count[name]
            values[f"{name}.busy_s"] = busy[name]
            values[f"{name}.selected"] = statistics.fmean(selected[name]) if selected[name] else 0.0
        values["partition.complete_bdcs.self_s"] = sum(
            t for i, t in self_time.items() if self.spans[i][0] == "partition.complete_bdcs"
        )
        values["partition.polar_routed"] = statistics.fmean(routed) if routed else 0.0
        values["precoding.hybrid.calls"] = count["precoding.hybrid_angular"] + count["precoding.hybrid_polar"]
        values["precoding.hybrid.blocks"] = statistics.fmean(blocks) if blocks else 0.0

        self.calls.clear()
        self._round_start = len(self.spans)
        return problems, dict(values), sum(self_time.values())

    def metrics(self, rounds: list, overhead_s: float) -> dict:
        """Per-layer metrics as {name: (value, unit)}: the mean over traced
        rounds, with call-time medians pooled over all rounds."""
        out = {name: statistics.fmean(r.get(name, 0.0) for r in rounds) for name in PER_LAYER}
        for kind in PURSUIT_KINDS:
            d = self._durations[f"recovery.{kind}"]
            out[f"recovery.{kind}.p50_ms"] = 1e3 * statistics.median(d) if d else 0.0
        out["trace.overhead_s"] = overhead_s
        out["trace.missing"] = float(len(self.missing))
        return {name: (out[name], unit(name)) for name in PER_LAYER}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")
