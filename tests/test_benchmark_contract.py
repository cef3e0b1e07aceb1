"""What the benchmark's tracer needs of fedvi.

``benchmarks/tracing.py`` wraps fedvi functions by name and calls its flop
model ``estimate_slack_flop(*args, **kwargs)`` with the arguments of each
``estimate_slack`` call, and ``benchmarks/workloads.py`` marks a traced run
incorrect when a spanned function its workload uses is never called (such as
``nn.backward`` in training) or one it bypasses is. A rename, a removal or a
signature change in ``src/`` that breaks any of these would otherwise show
only in a traced benchmark run. Both files are loaded read-only.
"""

from __future__ import annotations

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from fedvi import bounds, cli
from fedvi.bounds import generator_prior
from fedvi.config import parse_config
from fedvi.datagen import GenConfig, generate_hierarchical
from fedvi.seeding import substream

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "benchmarks" / "tracing.py"


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    try:
        yield importlib.import_module("workloads")
    finally:
        for name in ("workloads", "tracing"):
            sys.modules.pop(name, None)


def spanned_functions(tracing) -> dict[str, object]:
    return {
        f"{layer}.{name}": getattr(sys.modules[f"fedvi.{layer}"], name)
        for layer, name in tracing.SPANNED
    }


def test_tracer_installs_and_uninstalls(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = spanned_functions(tracing)
        gen = GenConfig(
            c=2, n_range=(10, 12), d=3, num_classes=2, sigma_beta=1.0,
            input_shift_scale=0.5, seed=1,
        )
        task = generate_hierarchical(gen)[1]
        args = (task, generator_prior(task), 1.0, 0.1, 3, 2, substream(0, 0))
        bounds.estimate_slack(*args)
    finally:
        tracer.uninstall()
    originals = spanned_functions(tracing)
    for name, original in originals.items():
        assert wrapped[name] is not original and inspect.unwrap(wrapped[name]) is original
    assert tracer.span_stats()["bounds.estimate_slack"]["calls"] == 1
    assert tracer.slack_flop == tracing.estimate_slack_flop(*args) > 0


def test_estimate_slack_arguments_bind_to_the_flop_model(tracing):
    names = list(inspect.signature(bounds.estimate_slack).parameters)
    flop = inspect.signature(tracing.estimate_slack_flop)
    flop.bind(*names)
    flop.bind(**dict.fromkeys(names))


@pytest.mark.parametrize(
    "workload, config", [("hetero-fedvi", "heterogeneous.cfg"), ("bound-audit", "bound.cfg")]
)
def test_traced_workload_passes_its_self_test(workloads, workload, config, tmp_path):
    overrides = {("train", "rounds"): 10, ("bound", "trials"): 2}
    cfg = parse_config(ROOT / "configs" / config, overrides)
    tracer = workloads.Tracer()
    tracer.install()
    try:
        assert cli.cmd_train(cfg, str(tmp_path)) == cli.EXIT_OK
        if workload == "bound-audit":
            with tracer.operation("job"):
                code = cli.cmd_bound(cfg, str(tmp_path / "params.bin"), str(tmp_path), True)
            assert code == cli.EXIT_OK
    finally:
        tracer.uninstall()
    assert workloads.self_test(tracer, workload) == []
