"""Per-layer spans for the traced run, recorded from outside the package.

`Tracer.install` wraps the public functions of each rawbench module and
rebinds every module namespace that holds the same function object, so
calls through imported names (`fit.develop_linear`, `isp.demosaic_bilinear`,
`augment.make_gaussian_kernel`, ...) are seen as well. Spans stay in memory
with their parent span and are summarised once, after the run.

A span's self time is its duration minus the union of its children's
intervals. Children are not clipped to their parent, so a child that was
hung under the wrong span shows as a negative self time. Spans opened on a worker thread with no open span of their own
take the main thread's innermost open span as parent, so `bench --jobs`
entries hang under the call that started them.
"""

import functools
import os
import statistics
import sys
import threading
import time
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _macs(span, args, kwargs, result):
    img, kernel = _arg(args, kwargs, 0, "img"), _arg(args, kwargs, 2, "kernel")
    span[4]["macs"] = kernel.taps.size * img.height * img.width * 3


def _identity_lut(span, args, kwargs, result):
    w_last = _arg(args, kwargs, 1, "weights").layers[-1][0]
    span[4]["identity_calls"] = int(not np.any(w_last))


def _draws(span, args, kwargs, result):
    span[4]["draws"] = _arg(args, kwargs, 1, "n")


def _corruption_kind(span, args, kwargs, result):
    span[0] = "corrupt." + _arg(args, kwargs, 0, "spec").kind


def _branch(span, args, kwargs, result):
    span[0] = "augment." + result[1]


def _loss(span, args, kwargs, result):
    span[4]["loss"] = result


def _bytes_of(index, name):
    def describe(span, args, kwargs, result):
        span[4]["bytes"] = os.path.getsize(_arg(args, kwargs, index, name))
    return describe


# (module, attribute, span name, describe). A class attribute is "Class.attr".
TARGETS = (
    ("raw", "demosaic_bilinear", "raw.demosaic_bilinear", None),
    ("isp", "gain_denoise_sharpen", "isp.gain_denoise_sharpen", _macs),
    ("isp", "sog_white_balance", "isp.sog_white_balance", None),
    ("isp", "apply_ccm", "isp.apply_ccm", None),
    ("isp", "nilut_forward", "isp.nilut_forward", _identity_lut),
    ("isp", "make_gaussian_kernel", "isp.make_gaussian_kernel", None),
    ("isp", "develop_linear", "isp.develop_linear", None),
    ("corrupt", "apply_corruption", "corrupt", _corruption_kind),
    ("corrupt", "procedural_depth", "corrupt.procedural_depth", None),
    ("corrupt", "procedural_flare", "corrupt.procedural_flare", None),
    ("corrupt", "sample_params", "corrupt.sample_params", None),
    ("rng", "RngStream.normals", "rng.normals", _draws),
    ("rng", "RngStream.uniforms", "rng.uniforms", _draws),
    ("augment", "augment_pipeline", "augment", _branch),
    ("fit", "fit_isp_params", "fit.fit_isp_params", None),
    ("fit", "image_loss", "fit.image_loss", _loss),
    ("formats", "read_raw", "formats.read_raw", _bytes_of(0, "pgm_path")),
    ("formats", "write_rgb", "formats.write_rgb", _bytes_of(1, "path")),
    ("formats", "read_rgb", "formats.read_rgb", _bytes_of(0, "path")),
    ("formats", "read_isp_params", "formats.json", None),
    ("formats", "write_isp_params", "formats.json", None),
    ("formats", "read_corruption_spec", "formats.json", None),
    ("formats", "read_bench_manifest", "formats.json", None),
    ("formats", "write_bench_manifest", "formats.json", None),
    ("formats", "read_augment_config", "formats.json", None),
    ("formats", "read_fit_config", "formats.json", None),
    ("formats", "write_fit_trace", "formats.json", None),
    ("cli", "main", "cli.main", None),
    ("cli", "_run_entry", "cli.run_entry", None),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, attrs]
        self.missing = set()  # targets the package no longer defines or calls differently
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, fn, name, describe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else None)
            span = [name, 0.0, 0.0, parent, {}]
            with self._lock:
                stack.append(len(self.spans))
                self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if describe is not None:
                try:
                    describe(span, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.missing.add(f"{name} (arguments changed)")
            return result
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "rawbench" or n.startswith("rawbench.")]
        for module, attr, name, describe in TARGETS:
            owner = sys.modules.get(f"rawbench.{module}")
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None)
            if original is None:
                self.missing.add(f"{module}.{attr}")
                continue
            wrapped = self.wrap(original, name, describe)
            if len(path) > 1:
                setattr(owner, path[-1], wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)


def self_times(spans) -> list:
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, float("-inf")
        for c_start, c_end in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            c_start = max(c_start, reach)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def summarize(spans) -> dict:
    """Per-layer metric values from one traced run's spans: `<span>.calls`
    (`.count` for augment branches), `<span>.self_s` and the sum of each
    recorded attribute, plus the derived fit and cli figures."""
    out = defaultdict(float)
    for span, s in zip(spans, self_times(spans)):
        name = span[0]
        out[name + (".count" if name.startswith("augment.") else ".calls")] += 1
        out[f"{name}.self_s"] += s
        for key, value in span[4].items():
            if key != "loss":
                out[f"{name}.{key}"] += value
        if name.startswith("cli.") and name != "cli.main":
            out["cli.main.self_s"] += s  # hashing in bench entries is cli work
    out.update(_fit_metrics(spans))
    out["cli.bench.parallelism"] = _parallelism(spans)
    return dict(out)


def _fit_metrics(spans) -> dict:
    losses = defaultdict(list)  # fit span -> [(end, loss)] of its evaluations
    for span in spans:
        if span[0] == "fit.image_loss" and span[3] is not None \
                and spans[span[3]][0] == "fit.fit_isp_params":
            losses[span[3]].append((span[2], span[4]["loss"]))
    gaps, improved, evaluations = [], 0, 0
    for evals in losses.values():
        evals.sort()
        ends = [end for end, _ in evals]
        gaps += [b - a for a, b in zip(ends, ends[1:])]
        best = float("inf")
        for _, loss in evals:
            evaluations += 1
            if loss < best:
                improved, best = improved + 1, loss
    return {
        "fit.evaluations": evaluations,
        "fit.eval_p50_ms": statistics.median(gaps) * 1e3 if gaps else 0.0,
        "fit.improve_ratio": improved / evaluations if evaluations else 0.0,
    }


def _parallelism(spans) -> float:
    """Summed `bench` entry time over the wall time of the calls holding them."""
    entry_s, parents = 0.0, set()
    for span in spans:
        if span[0] == "cli.run_entry" and span[3] is not None:
            entry_s += span[2] - span[1]
            parents.add(span[3])
    wall = sum(spans[p][2] - spans[p][1] for p in parents)
    return entry_s / wall if wall else 0.0
