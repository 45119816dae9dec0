"""Span tracing for the benchmark's traced runs.

The traced run wraps public functions of execlab's modules from the
benchmark's own files; the package itself is not changed.  Each wrapper
records a span (name, start, end, parent span) in memory, and the spans are
written out, tagged with the run id, when the traced process ends.

A name is patched where its caller looks it up: ``execlab.ppo.trainer.update``
rather than ``execlab.ppo.agent.update``, ``execlab.cli.resample`` for the CLI,
and methods such as ``ExecutionEnv.step`` on the class.  A span is named
after the module that defines the function, whichever module calls it:
``run_episode`` is ``env.episode`` even when ``evalkit.compare`` calls it.

Time that no patched function covers belongs to no layer: the CLI's own
glue (argument and config parsing, manifests), evalkit's report and CSV
writers, checkpoint I/O, and interpreter start-up and imports.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from collections import defaultdict

import numpy as np

# (module, attribute looked up by the caller, span name).
PATCHES = (
    ("execlab.capture.records", "read_capture", "capture.records"),
    ("execlab.cli", "read_capture", "capture.records"),
    ("execlab.capture.clock", "align_clock", "capture.clock"),
    ("execlab.cli", "align_clock", "capture.clock"),
    ("execlab.capture.resample", "resample", "capture.resample"),
    ("execlab.cli", "resample", "capture.resample"),
    ("execlab.capture.resample", "write_frames_csv", "capture.resample.csv"),
    ("execlab.cli", "write_frames_csv", "capture.resample.csv"),
    ("execlab.capture.resample", "apply_snapshot", "capture.book.apply_snapshot"),
    ("execlab.capture.resample", "apply_delta", "capture.book.apply_delta"),
    ("execlab.capture.resample", "merge_ticker", "capture.book.merge_ticker"),
    ("execlab.synth", "generate", "synth.generate"),
    ("execlab.cli", "generate", "synth.generate"),
    ("execlab.synth", "generate_frames", "synth.generate_frames"),
    ("execlab.signals", "feature_bundle", "signals.feature_bundle"),
    ("execlab.cli", "feature_bundle", "signals.feature_bundle"),
    ("execlab.cli", "horizon_report", "signals.horizon_report"),
    # The feature helpers `signals report` calls itself (feature_bundle calls
    # them inside its own span).
    *(("execlab.cli", fn, "signals.features") for fn in (
        "flow_imbalance", "flow_imbalance_norm", "depth_imbalance", "cross_sum",
        "peer_spread", "peer_spread_centered",
    )),
    ("execlab.env", "ExecutionEnv.__init__", "env.build"),
    ("execlab.env", "ExecutionEnv.step", "env.step"),
    ("execlab.env", "fill_market_sell", "lob.fill"),
    ("execlab.ppo.trainer", "train_policy", "ppo.trainer.train_policy"),
    ("execlab.cli", "train_policy", "ppo.trainer.train_policy"),
    ("execlab.ppo.trainer", "collect_rollout", "ppo.trainer.rollout"),
    ("execlab.ppo.trainer", "update", "ppo.trainer.update"),
    ("execlab.ppo.trainer", "policy_forward", "ppo.agent.policy_forward"),
    ("execlab.ppo.agent", "policy_forward", "ppo.agent.policy_forward"),
    ("execlab.evalkit", "policy_forward", "ppo.agent.policy_forward"),
    ("execlab.ppo.agent", "ppo_loss", "ppo.agent.ppo_loss"),
    ("execlab.ppo.agent", "mlp_forward", "ppo.net.mlp_forward"),
    ("execlab.ppo.agent", "mlp_backward", "ppo.net.mlp_backward"),
    ("execlab.ppo.agent", "adam_step", "ppo.net.adam_step"),
    ("execlab.evalkit", "compare", "evalkit.compare"),
    ("execlab.cli", "compare", "evalkit.compare"),
    ("execlab.evalkit", "run_episode", "env.episode"),
    ("execlab.evalkit", "TwapPolicy.__call__", "evalkit.policy"),
    ("execlab.evalkit", "GreedyPolicy.__call__", "evalkit.policy"),
    ("execlab.evalkit", "SampledPolicy.__call__", "evalkit.policy"),
    ("execlab.evalkit", "action_heatmap", "evalkit.heatmap"),
    ("execlab.cli", "action_heatmap", "evalkit.heatmap"),
)

# Layers are the package's modules; a span belongs to the first layer its
# name starts with.
LAYERS = (
    "capture.records",
    "capture.resample",
    "capture.book",
    "capture.clock",
    "synth",
    "signals",
    "env",
    "lob",
    "ppo.trainer",
    "ppo.agent",
    "ppo.net",
    "evalkit",
)

ARMS = ("TWAP", "PPO_single", "PPO_cross")


class Tracer:
    """In-memory spans ``[name, start, end, parent index]`` plus counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._arm_of_policy: dict[int, str] = {}

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return traced

    # -- wrappers that also count work at the boundary ----------------------

    def _wrap_read_capture(self, name, fn):
        @functools.wraps(fn)
        def traced(path, *args, **kwargs):
            # The reader is a generator; parse time is only visible if the
            # stream is drained inside the span.  Every caller iterates once.
            with self.span(name):
                records = list(fn(path, *args, **kwargs))
            self.counters["records"] += len(records)
            return records

        return traced

    def _wrap_resample(self, name, fn):
        traced = self.wrap(name, fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            frames = traced(*args, **kwargs)
            changed, emitted = book_changes(frames)
            self.counters["frames"] += frames.n_frames
            self.counters["venue_frames_changed"] += changed
            self.counters["venue_frames"] += emitted
            return frames

        return counted

    def _wrap_csv(self, name, fn):
        traced = self.wrap(name, fn)

        @functools.wraps(fn)
        def counted(frames, path, *args, **kwargs):
            traced(frames, path, *args, **kwargs)
            self.counters["csv_rows"] += frames.n_frames * len(frames.venues)
            self.counters["csv_bytes"] += os.path.getsize(path)

        return counted

    def _wrap_compare(self, name, fn):
        traced = self.wrap(name, fn)

        @functools.wraps(fn)
        def registered(arms, *args, **kwargs):
            self._arm_of_policy = {id(arm.policy): arm_name for arm_name, arm in arms.items()}
            try:
                return traced(arms, *args, **kwargs)
            finally:
                self._arm_of_policy = {}

        return registered

    def _wrap_episode(self, name, fn):
        @functools.wraps(fn)
        def traced(env, policy, *args, **kwargs):
            arm = self._arm_of_policy.get(id(policy), "other")
            rec = self._open(f"{name}.{arm}")
            try:
                return fn(env, policy, *args, **kwargs)
            finally:
                self._close(rec)

        return traced

    def install(self) -> None:
        """Replace every name in PATCHES by a traced wrapper."""
        special = {
            "capture.records": self._wrap_read_capture,
            "capture.resample": self._wrap_resample,
            "capture.resample.csv": self._wrap_csv,
            "evalkit.compare": self._wrap_compare,
            "env.episode": self._wrap_episode,
        }
        for module_name, attr, name in PATCHES:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf)
            setattr(owner, leaf, special.get(name, self.wrap)(name, fn))

    def write(self, path: str) -> None:
        """Write the spans (one JSON object a line) and counters to `path`."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run_id": self.run_id, "counters": dict(self.counters)}) + "\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"run_id": self.run_id, "id": i, "name": name, "start": start,
                         "end": end, "parent": parent}
                    )
                    + "\n"
                )


def read_spans(path: str) -> tuple[list[list], dict[str, float]]:
    """Spans and counters written by Tracer.write."""
    with open(path, "r", encoding="utf-8") as fh:
        counters = json.loads(fh.readline())["counters"]
        spans = []
        for line in fh:
            s = json.loads(line)
            spans.append([s["name"], s["start"], s["end"], s["parent"]])
    return spans, counters


def book_changes(frames) -> tuple[int, int]:
    """(venue-frames whose top-5 book differs from the previous frame, venue-frames).

    The first frame of each venue counts as changed.
    """
    changed = 0
    emitted = 0
    for vf in frames.venues.values():
        book = np.concatenate(
            [np.nan_to_num(vf.bid_price, nan=-1.0), vf.bid_qty,
             np.nan_to_num(vf.ask_price, nan=-1.0), vf.ask_qty],
            axis=1,
        )
        if len(book):
            changed += 1 + int(np.any(book[1:] != book[:-1], axis=1).sum())
        emitted += len(book)
    return changed, emitted


def layer_of(name: str) -> str | None:
    for layer in LAYERS:
        if name == layer or name.startswith(layer + "."):
            return layer
    return None


def self_times(spans: list[list]) -> dict[str, float]:
    """Per-layer self time: each span's duration minus what its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = {layer: 0.0 for layer in LAYERS}
    for i, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start = max(c_start, reach)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        layer = layer_of(name)
        if layer is not None:
            out[layer] += (end - start) - covered
    return out


def _has_ancestor(spans: list[list], i: int, name: str) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans: list[list], counters: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one repetition (all its processes' spans together).

    Layers a workload does not exercise report 0.
    """
    durations: dict[str, list[float]] = defaultdict(list)
    for name, start, end, _ in spans:
        durations[name].append(end - start)

    def total(name: str) -> float:
        return float(sum(durations.get(name, ())))

    def calls(name: str) -> int:
        return len(durations.get(name, ()))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, float] = {}
    parse_s = total("capture.records")
    m["records.parse_s"] = parse_s
    m["records.count"] = counters.get("records", 0)
    m["records.per_s"] = ratio(m["records.count"], parse_s)

    m["resample.resample_s"] = total("capture.resample")
    m["resample.frames"] = counters.get("frames", 0)
    m["resample.book_changed_frac"] = ratio(
        counters.get("venue_frames_changed", 0), counters.get("venue_frames", 0)
    )
    m["resample.csv_s"] = total("capture.resample.csv")
    m["resample.csv_rows_per_s"] = ratio(counters.get("csv_rows", 0), m["resample.csv_s"])
    m["resample.csv_bytes"] = counters.get("csv_bytes", 0)

    book = ("apply_snapshot", "apply_delta", "merge_ticker")
    for fn in book:
        m[f"book.{fn}_calls"] = calls(f"capture.book.{fn}")
    m["book.apply_s"] = sum(total(f"capture.book.{fn}") for fn in book)

    m["clock.align_s"] = total("capture.clock")
    m["synth.generate_s"] = total("synth.generate")
    m["synth.generate_frames_s"] = total("synth.generate_frames")
    m["signals.feature_bundle_s"] = total("signals.feature_bundle")
    m["signals.horizon_report_s"] = total("signals.horizon_report")

    n_train = calls("ppo.trainer.train_policy")
    builds_in_training = sum(
        1 for i, s in enumerate(spans)
        if s[0] == "env.build" and _has_ancestor(spans, i, "ppo.trainer.train_policy")
    )
    m["env.builds"] = ratio(builds_in_training, n_train)
    m["env.build_useful_frac"] = ratio(1.0, m["env.builds"])
    m["env.build_s"] = total("env.build")
    steps = np.asarray(durations.get("env.step", ()))
    m["env.steps"] = len(steps)
    m["env.step_p50_us"] = float(np.percentile(steps, 50) * 1e6) if len(steps) else 0.0
    m["env.step_p99_us"] = float(np.percentile(steps, 99) * 1e6) if len(steps) else 0.0
    m["env.step_samples"] = len(steps)

    m["lob.fill_calls"] = calls("lob.fill")
    m["lob.fill_s"] = total("lob.fill")

    rollout_s = total("ppo.trainer.rollout")
    update_s = total("ppo.trainer.update")
    m["trainer.rollout_s"] = ratio(rollout_s, calls("ppo.trainer.rollout"))
    m["trainer.update_s"] = ratio(update_s, calls("ppo.trainer.update"))
    m["trainer.rollout_share"] = ratio(rollout_s, rollout_s + update_s)

    for metric, name in (
        ("agent.policy_forward", "ppo.agent.policy_forward"),
        ("agent.ppo_loss", "ppo.agent.ppo_loss"),
        ("net.mlp_backward", "ppo.net.mlp_backward"),
        ("net.adam_step", "ppo.net.adam_step"),
        ("net.mlp_forward", "ppo.net.mlp_forward"),
    ):
        m[f"{metric}_calls"] = calls(name)
        m[f"{metric}_s"] = total(name)
    m["agent.minibatch_steps_per_s"] = ratio(calls("ppo.agent.ppo_loss"), update_s)

    m["evalkit.compare_s"] = total("evalkit.compare")
    for arm in ARMS:
        name = f"env.episode.{arm}"
        m[f"evalkit.episodes_per_s.{arm}"] = ratio(calls(name), total(name))
    m["evalkit.heatmap_s"] = total("evalkit.heatmap")

    for layer, seconds in self_times(spans).items():
        m[f"{layer}.self_s"] = seconds
    m["trace.spans"] = len(spans)
    return m
