"""Tracing of fedvi's layers from the benchmark's own files.

The program is not edited: :class:`Tracer` replaces public functions of the
``fedvi`` modules with wrappers, at every binding a caller can reach.
``federation`` imports ``minibatch_loss`` by name, ``model`` imports
``kl_diag`` by name, and so on, so patching only the defining module would
miss those calls; :func:`bindings` finds every ``fedvi.*`` module attribute
that holds the original function object and patches each of them.

Two kinds of wrapper:

* a *span* records (name, start, end, parent span, operation id) in memory;
  spans are written out only by :meth:`Tracer.write_spans`, after the
  measured work has finished;
* a *counter* only counts calls. It is used for the graph-building ops of
  ``fedvi.nn``, which run about sixty times per client step, where a span
  each would cost more than the op.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Functions that get a span: (layer, function name in its defining module).
SPANNED = [
    ("nn", "backward"),
    ("nn", "softmax_nll"),
    ("distributions", "kl_diag"),
    ("distributions", "sample_reparam"),
    ("model", "embed"),
    ("model", "construct_posterior"),
    ("model", "forward_batch"),
    ("model", "minibatch_loss"),
    ("model", "global_branch_logits"),
    ("model", "predict_logits"),
    ("federation", "client_update"),
    ("federation", "server_apply"),
    ("federation", "evaluate"),
    ("federation", "sample_cohort"),
    ("seeding", "substream"),
    ("bounds", "client_posterior_audit"),
    ("bounds", "estimate_slack"),
    ("bounds", "bound_holds_check"),
    ("datagen", "generate_hierarchical"),
    ("federation", "run_training"),
    ("cli", "save_params"),
    ("cli", "write_metrics"),
]

# The graph-building ops of fedvi.nn; each call is counted, none is timed.
NN_OPS = [
    "add", "mul", "neg", "matmul", "transpose", "reshape", "narrow", "row_slice",
    "relu", "exp", "log", "mean_rows", "total", "dense_forward", "dropout", "softmax_nll",
]


def bindings(fn) -> list[tuple[object, str]]:
    """Every (module, attribute) under ``fedvi`` that holds ``fn``."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "fedvi" or mod_name.startswith("fedvi.")):
            continue
        for attr, value in vars(mod).items():
            if value is fn:
                found.append((mod, attr))
    return found


class Tracer:
    """Span recorder and call counter for one benchmark process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int, str] | None] = []
        self.stack: list[int] = []
        self.op_id = "-"
        self.op_counts = [0] * len(NN_OPS)
        self.nn_ops_in_client_update = 0
        self.client_steps = 0
        self.evaluate_clients = 0
        self.slack_flop = 0.0
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import fedvi  # noqa: F401  (loads every submodule the bindings live in)
        import fedvi.cli  # noqa: F401

        for layer, fn_name in SPANNED:
            original = getattr(sys.modules[f"fedvi.{layer}"], fn_name)
            wrapper = self._span_wrapper(f"{layer}.{fn_name}", original)
            self._patch(original, wrapper)
        nn = sys.modules["fedvi.nn"]
        for i, op in enumerate(NN_OPS):
            # softmax_nll is already spanned; its counter goes around the span.
            current = getattr(nn, op)
            self._patch(current, self._count_wrapper(i, current))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _patch(self, original, wrapper) -> None:
        found = bindings(original)
        if not found:
            raise RuntimeError(f"no binding found for {original!r}")
        for mod, attr in found:
            self._patched.append((mod, attr, original))
            setattr(mod, attr, wrapper)

    @contextmanager
    def operation(self, op_id: str):
        """Tag every span opened inside with ``op_id`` (one id per operation)."""
        previous, self.op_id = self.op_id, op_id
        try:
            yield
        finally:
            self.op_id = previous

    # -- wrappers ---------------------------------------------------------

    def _count_wrapper(self, index: int, fn):
        counts = self.op_counts

        def counted(*args, **kwargs):
            counts[index] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _span_wrapper(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        on_return = {
            "federation.client_update": self._after_client_update,
            "federation.evaluate": self._after_evaluate,
            "bounds.estimate_slack": self._after_estimate_slack,
        }.get(name)
        counts_ops = name == "federation.client_update"
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            ops_before = sum(self.op_counts) if counts_ops else 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name_id, t0, t1, parent, self.op_id)
            if counts_ops:
                self.nn_ops_in_client_update += sum(self.op_counts) - ops_before
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        spanned.__wrapped__ = fn
        return spanned

    def _after_client_update(self, args, kwargs, result) -> None:
        if result is not None:  # None: a client too small to train on
            self.client_steps += result.steps

    def _after_evaluate(self, args, kwargs, result) -> None:
        clients = args[1] if len(args) > 1 else kwargs["clients"]
        self.evaluate_clients += len(clients)

    def _after_estimate_slack(self, args, kwargs, result) -> None:
        self.slack_flop += estimate_slack_flop(*args, **kwargs)

    # -- aggregation ------------------------------------------------------

    def span_stats(self, op_prefix: str | None = None) -> dict[str, dict[str, float]]:
        """calls, total seconds and self seconds per span name.

        Self time is a span's duration minus the durations of its direct
        children. ``op_prefix`` keeps only spans whose operation id starts
        with it.
        """
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            name_id, t0, t1, parent, _ = span
            if parent >= 0:
                child_s[parent] += t1 - t0
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for idx, (name_id, t0, t1, _parent, op_id) in enumerate(self.spans):
            if op_prefix is not None and not op_id.startswith(op_prefix):
                continue
            s = stats[self.names[name_id]]
            s["calls"] += 1
            s["total_s"] += t1 - t0
            s["self_s"] += t1 - t0 - child_s[idx]
        return stats

    def write_spans(self, path) -> None:
        """One JSON header line with the name table, then one line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "fields": ["name", "start", "end", "parent", "op"]}))
            fh.write("\n")
            for name_id, t0, t1, parent, op_id in self.spans:
                fh.write(f'[{name_id},{t0!r},{t1!r},{parent},"{op_id}"]\n')


def estimate_slack_flop(
    task, prior, eta, delta, n_prior_samples, n_data_draws, rng=None
) -> float:
    """Matmul flops of one ``estimate_slack`` call, computed from its shapes.

    Per client k, the pool [P x d] and the data draws [D * n_k x d] are
    multiplied by the stacked hypotheses [d x S * K]: 2 * d * S * K *
    (P + D * n_k) flops. Softmax and gathers are not counted.
    """
    from fedvi.bounds import TRUE_RISK_POINTS_PER_CLIENT

    cfg = task.cfg
    rows = sum(TRUE_RISK_POINTS_PER_CLIENT + n_data_draws * n for n in task.n_per_client)
    return 2.0 * cfg.d * n_prior_samples * cfg.num_classes * rows
