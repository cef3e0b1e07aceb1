"""The benchmark workloads, their measured phases and output checks.

Every workload is one process on one shipped config, with the config's own
``parallel = false``. The workload seed replaces the config's run seed and
data seed: run seed = data seed = (shipped ``run.seed``) + workload seed,
so ``--seed 0`` runs the configs exactly as shipped.

Operations, for ``attempted`` and ``failed``: each training round, each
evaluation pass and each bound trial is one operation. An exception or a
failed output check fails every operation of the job it happened in.
"""

from __future__ import annotations

import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from tracing import Tracer, bindings

clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    config: str
    kind: str  # "train": the job is `fedvi train`; "bound": `fedvi bound --check`
    jobs: int  # command jobs per untraced run


WORKLOADS = {
    # Each job is a 200-round training; every job's metrics.csv is compared
    # with the first one's.
    "hetero-fedvi": Workload("configs/heterogeneous.cfg", "train", jobs=4),
    # Round samples come from the trainings of the audited parameters, one
    # per cycle: 27 rounds without evaluation out of 30 each.
    "bound-audit": Workload("configs/bound.cfg", "bound", jobs=2),
}

# Spans every traced run of a workload must record at least once, and the
# spans its bypass predicts are never called.
COMMON_SPANS = {
    "nn.backward", "nn.softmax_nll", "model.embed", "federation.client_update",
    "federation.server_apply", "federation.evaluate", "federation.sample_cohort",
    "seeding.substream", "datagen.generate_hierarchical", "federation.run_training",
    "cli.save_params", "cli.write_metrics",
}
POSTERIOR_SPANS = {
    "distributions.kl_diag", "distributions.sample_reparam", "model.construct_posterior",
    "model.forward_batch", "model.minibatch_loss", "model.predict_logits",
}
BOUND_SPANS = {
    "bounds.client_posterior_audit", "bounds.estimate_slack", "bounds.bound_holds_check",
}
EXPECTED_CALLED = {
    "hetero-fedvi": COMMON_SPANS | POSTERIOR_SPANS,
    "bound-audit": COMMON_SPANS | POSTERIOR_SPANS | BOUND_SPANS,
}
# global_branch_logits is the fedavg model's; fedvi never calls it.
EXPECTED_UNCALLED = {
    "hetero-fedvi": BOUND_SPANS | {"model.global_branch_logits"},
    "bound-audit": {"model.global_branch_logits"},
}
# bound-audit's measured phase is forward-only.
UNCALLED_IN_BOUND_JOB = {"nn.backward"}

TRACE_EVAL_PASSES = 10
TRACE_PAIRS = 3  # untraced/traced job pairs for trace.overhead_frac
SETUPS_PER_CYCLE = 10
WARMUP_ROUNDS = 20
MIN_ROUNDS = 200  # rounds without evaluation, so twenty lie beyond p90
MIN_EVAL_PASSES = 100  # so ten lie beyond p90
EVAL_SLICE_S = 1.0  # evaluation passes per cycle, in seconds


class CheckFailed(Exception):
    """An output of the program is not what the contract says it must be."""


def config_text(base: str, overrides: dict) -> str:
    """Rewrite ``key = value`` lines of a config; append keys it lacks."""
    pending = dict(overrides)
    out, section = [], None
    for raw in base.splitlines():
        line = raw.strip()
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
        elif "=" in line and not line.startswith("#") and section is not None:
            key = line.partition("=")[0].strip()
            if (section, key) in pending:
                raw = f"{key} = {pending.pop((section, key))}"
        out.append(raw)
    for (section, key), value in pending.items():
        out += [f"[{section}]", f"{key} = {value}"]
    return "\n".join(out) + "\n"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: at least (1 - q) of the samples lie at or above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


@dataclass
class TrainJob:
    """One `fedvi train` command and what it wrote."""

    command_s: float
    train_s: float
    round_s: list[float]  # every round, in order
    round_evaluated: list[bool]
    out: Path
    metrics_csv: bytes
    accuracies: tuple
    last_row: dict

    @property
    def segments(self) -> list[float]:
        """The command's seconds in pieces that every job repeats: each round,
        then the rest (data generation, writing the outputs)."""
        return self.round_s + [self.command_s - sum(self.round_s)]


@dataclass
class BoundJob:
    command_s: float
    bound_csv: bytes
    report: dict

    @property
    def segments(self) -> list[float]:
        return [self.command_s]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def ok(self, ops: int) -> None:
        self.attempted += ops

    def fail(self, ops: int, what: str) -> None:
        self.attempted += ops
        self.failed += ops
        print(f"FAILED {what}", file=sys.stderr)


class Runner:
    """Runs one workload in one process and computes its metrics."""

    def __init__(self, root: Path, name: str, seed: int, seconds: float):
        import fedvi.cli
        import fedvi.config
        import fedvi.datagen
        import fedvi.federation

        self.parse_config = fedvi.config.parse_config_text
        self.cli = fedvi.cli
        self.datagen = fedvi.datagen
        self.federation = fedvi.federation
        self.name = name
        self.workload = WORKLOADS[name]
        self.seconds = seconds
        self.out_dir = root / ".bench_out" / name
        self.tally = Tally()
        base = (root / self.workload.config).read_text(encoding="utf-8")
        self.seed = self.parse_config(base, self.workload.config).seed + seed
        self.text = config_text(base, {("run", "seed"): self.seed, ("data", "data_seed"): self.seed})
        self.reference_job: TrainJob | None = None
        self.reference_bound: BoundJob | None = None
        self._training_runs: list[tuple[float, object]] = []
        self._capture_run_training()

    def _capture_run_training(self) -> None:
        """Time each `run_training` call and keep its RunResult (per-round times)."""
        original = self.federation.run_training
        runs = self._training_runs

        def captured(*args, **kwargs):
            t0 = clock()
            result = original(*args, **kwargs)
            runs.append((clock() - t0, result))
            return result

        for mod, attr in bindings(original):
            setattr(mod, attr, captured)

    # -- phases -----------------------------------------------------------

    def setup(self):
        """Config parse, data generation and server init, on every workload.
        Returns (seconds, config, dataset)."""
        t0 = clock()
        cfg = self.parse_config(self.text, self.workload.config)
        ds, _ = self.datagen.generate_hierarchical(cfg.gen)
        self.federation.init_server(cfg.arch, cfg.seed)
        return clock() - t0, cfg, ds

    def train_job(self, cfg, ds, label: str) -> TrainJob | None:
        rounds = cfg.train.rounds
        out = self.out_dir / label
        try:
            self._training_runs.clear()
            t0 = clock()
            with redirect_stdout(io.StringIO()):
                code = self.cli.cmd_train(cfg, str(out))
            command_s = clock() - t0
            if code != 0:
                raise CheckFailed(f"cmd_train exited {code}")
            train_s, result = self._training_runs.pop()
            job = self._check_train_outputs(cfg, ds, out, command_s, train_s, result)
        except Exception as exc:  # a failed job is counted, then the run goes on
            self.tally.fail(rounds, f"train job {label}: {exc!r}\n{traceback.format_exc()}")
            return None
        self.tally.ok(rounds)
        return job

    def _check_train_outputs(self, cfg, ds, out, command_s, train_s, result) -> TrainJob:
        metrics_csv = (out / "metrics.csv").read_bytes()
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        rows = self.cli.read_metrics(out / "metrics.csv")
        if not rows:
            raise CheckFailed("metrics.csv has no evaluated rounds")
        for row in rows:
            keys = ["loss", "part_acc", "kl_mean"] + (["nonpart_acc"] if ds.holdout_count else [])
            if not all(_finite(row[k]) for k in keys):
                raise CheckFailed(f"non-finite value in metrics row {row}")
        accuracies = (summary["part_acc"], summary["nonpart_acc"])
        if not _finite(accuracies[0]) or (ds.holdout_count and not _finite(accuracies[1])):
            raise CheckFailed(f"non-finite summary accuracies {accuracies}")
        job = TrainJob(
            command_s=command_s,
            train_s=train_s,
            round_s=[r.duration_s for r in result.reports],
            round_evaluated=[r.part_acc is not None for r in result.reports],
            out=out,
            metrics_csv=metrics_csv,
            accuracies=accuracies,
            last_row=rows[-1],
        )
        ref = self.reference_job
        if ref is None:
            self.reference_job = job
        elif job.metrics_csv != ref.metrics_csv or job.accuracies != ref.accuracies:
            raise CheckFailed("metrics.csv or summary accuracies differ from the first run")
        return job

    def eval_pass(self, cfg, ds, params) -> float | None:
        """One `evaluate` over participating and holdout clients at the final
        parameters. It must reproduce the last metrics.csv row exactly."""
        evaluate = self.federation.evaluate
        try:
            t0 = clock()
            accs = [evaluate(params, ds.participating_clients(), cfg.train).accuracy]
            if ds.holdout_count:
                accs.append(evaluate(params, ds.holdout_clients(), cfg.train).accuracy)
            dt = clock() - t0
            if not all(_finite(a) for a in accs):
                raise CheckFailed(f"non-finite evaluation accuracy {accs}")
            expected = [self.reference_job.last_row["part_acc"]]
            if ds.holdout_count:
                expected.append(self.reference_job.last_row["nonpart_acc"])
            if accs != expected:
                raise CheckFailed(f"evaluate gave {accs}, metrics.csv's last row {expected}")
        except Exception as exc:
            self.tally.fail(1, f"eval pass: {exc!r}")
            return None
        self.tally.ok(1)
        return dt

    def bound_job(self, cfg, params_path: Path, label: str) -> BoundJob | None:
        trials = cfg.bound_trials
        out = self.out_dir / label
        try:
            t0 = clock()
            with redirect_stdout(io.StringIO()):
                code = self.cli.cmd_bound(cfg, str(params_path), str(out), True)
            command_s = clock() - t0
            if code != 0:
                raise CheckFailed(f"cmd_bound exited {code}")
            report = json.loads((out / "bound.json").read_text(encoding="utf-8"))
            for key in ("rhs", "slack_delta_scaled", "slack_moment", "empirical_risk", "kl_local"):
                if not _finite(report.get(key)):
                    raise CheckFailed(f"bound report {key} = {report.get(key)!r} is not finite")
            hf = report.get("holds_fraction")
            if not _finite(hf) or not 0.0 <= hf <= 1.0 or report.get("trials") != trials:
                raise CheckFailed(f"holds_fraction {hf!r} over {report.get('trials')} trials")
            job = BoundJob(command_s, (out / "bound.csv").read_bytes(), report)
            if self.reference_bound is None:
                self.reference_bound = job
            elif job.bound_csv != self.reference_bound.bound_csv:
                raise CheckFailed("bound.csv differs from the first run's")
        except Exception as exc:
            self.tally.fail(trials, f"bound job {label}: {exc!r}\n{traceback.format_exc()}")
            return None
        self.tally.ok(trials)
        return job

    # -- runs -------------------------------------------------------------

    def warm_up(self) -> None:
        """An untimed, unchecked short training, so that first-use costs do
        not land in the first timed job."""
        text = config_text(self.text, {("train", "rounds"): WARMUP_ROUNDS})
        with redirect_stdout(io.StringIO()):
            self.cli.cmd_train(self.parse_config(text, self.workload.config),
                               str(self.out_dir / "warmup"))

    def measure(self) -> tuple[dict, dict]:
        """The untraced run: returns (end-to-end metrics, informational values).

        The run repeats one cycle: set-ups, on bound-audit one training of
        the audited parameters, the workload's job, then evaluation passes
        for ``EVAL_SLICE_S``; it stops once ``--seconds`` have passed and
        every minimum is met. The k-th job starts no earlier than k/jobs of
        ``--seconds`` into the run, and no more than ``jobs`` run. Cycling
        and pacing spread the samples of each metric over the whole run.

        The shared machine runs the same code in a slow or a fast state, up
        to 1.5 times apart, in spells of seconds to minutes; the slow state
        holds most of the time. So the time metrics other than ``setup_s``
        are upper percentiles (see ``assembled_seconds``; p90 of rounds and
        of evaluation passes): a fast spell in part of a run leaves them in
        the slow state, where a median would follow the run's share of fast
        time.
        """
        bound = self.workload.kind == "bound"
        setup_s, train_jobs, bound_jobs, eval_s = [], [], [], []
        jobs = bound_jobs if bound else train_jobs
        params = None
        self.warm_up()
        t_start = clock()
        while not self.tally.failed:
            for _ in range(SETUPS_PER_CYCLE):
                dt, cfg, ds = self.setup()
                setup_s.append(dt)
            if bound:
                job = self.train_job(cfg, ds, f"train{len(train_jobs)}")
                if job is not None:
                    train_jobs.append(job)
            due = len(jobs) * self.seconds / self.workload.jobs
            if len(jobs) < self.workload.jobs and clock() - t_start >= due:
                if not bound:
                    job = self.train_job(cfg, ds, f"job{len(jobs)}")
                elif train_jobs:
                    job = self.bound_job(cfg, train_jobs[0].out / "params.bin", f"bound{len(jobs)}")
                else:
                    job = None
                if job is not None:
                    jobs.append(job)
            if params is None and train_jobs:
                params = self.cli.load_params(train_jobs[0].out / "params.bin")
            t_slice = clock()
            while params is not None and clock() - t_slice < EVAL_SLICE_S:
                dt = self.eval_pass(cfg, ds, params)
                if dt is None:
                    break
                eval_s.append(dt)
            rounds = [d for j in train_jobs
                      for d, evaluated in zip(j.round_s, j.round_evaluated) if not evaluated]
            if (clock() - t_start >= self.seconds and len(jobs) >= self.workload.jobs
                    and len(rounds) >= MIN_ROUNDS and len(eval_s) >= MIN_EVAL_PASSES):
                break
        if not jobs or not train_jobs or not eval_s:
            raise RuntimeError("no job or evaluation pass completed; see the failures above")

        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "command_s": (assembled_seconds(jobs), "s"),
            "round_ms_p90": (1e3 * percentile(rounds, 0.90), "ms"),
            "eval_ms_p90": (1e3 * percentile(eval_s, 0.90), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "part_acc": (train_jobs[0].accuracies[0], "fraction"),
        }
        # Printed, not end-to-end metrics. train_s on bound-audit is the
        # training of the audited parameters.
        info = {
            "command_s_each": " ".join(f"{j.command_s:.4f}" for j in jobs),
            "train_s": statistics.median(j.train_s for j in train_jobs),
            "round_ms_p50": 1e3 * percentile(rounds, 0.50),
            "eval_ms_p50": 1e3 * statistics.median(eval_s),
            "nonpart_acc": train_jobs[0].accuracies[1],
            "setups": len(setup_s),
            "train_jobs": len(train_jobs),
            "rounds_sampled": len(rounds),
            "eval_passes": len(eval_s),
        }
        if bound_jobs:
            report = bound_jobs[0].report
            info.update(
                bound_jobs=len(bound_jobs),
                holds_fraction=report["holds_fraction"],
                rhs=report["rhs"],
                slack_delta_scaled=report["slack_delta_scaled"],
            )
        return metrics, info

    def main_job(self, cfg, ds, audited: TrainJob | None, label: str):
        """The workload's job: `fedvi train`, or `fedvi bound --check` on the
        audited parameters. Returns (the training job whose parameters get
        evaluated, the job's timed seconds), with None for a failed part."""
        if self.workload.kind == "train":
            job = self.train_job(cfg, ds, label)
            return job, job and job.train_s
        bound = audited and self.bound_job(cfg, audited.out / "params.bin", label)
        return audited, bound and bound.command_s

    def trace(self) -> tuple[dict, dict]:
        """The traced run: ``TRACE_PAIRS`` pairs of an untraced and a traced
        job. The first traced part also holds a set-up, on bound-audit the
        training of the audited parameters, and a few evaluation passes; its
        spans give the per-layer metrics. Each later pair's tracer is fresh
        and only serves the overhead: the median over the pairs of traced
        over untraced seconds, minus 1."""
        bound = self.workload.kind == "bound"
        _, cfg, ds = self.setup()
        audited = self.train_job(cfg, ds, "untraced-train") if bound else None
        tracer = Tracer()
        ratios = []
        for i in range(TRACE_PAIRS):
            _, base_s = self.main_job(cfg, ds, audited, f"untraced-job{i}")
            active = tracer if i == 0 else Tracer()
            active.install()
            try:
                if i == 0:
                    with tracer.operation("setup"):
                        _, cfg, ds = self.setup()
                        if bound:
                            audited = self.train_job(cfg, ds, "traced-train")
                with active.operation("job"):
                    evaluated, traced_s = self.main_job(cfg, ds, audited, f"traced-job{i}")
                if i == 0 and evaluated is not None:
                    params = self.cli.load_params(evaluated.out / "params.bin")
                    for j in range(TRACE_EVAL_PASSES):
                        with tracer.operation(f"eval{j}"):
                            self.eval_pass(cfg, ds, params)
            finally:
                active.uninstall()
            if base_s is None or traced_s is None:
                raise RuntimeError("a traced or untraced job failed; see the failures above")
            ratios.append(traced_s / base_s)
        tracer.write_spans(self.out_dir / "spans.jsonl")
        metrics = per_layer_metrics(tracer, statistics.median(ratios) - 1.0)
        problems = self_test(tracer, self.name)
        for problem in problems:
            print(f"SELF-TEST {problem}", file=sys.stderr)
        return metrics, {"self_test_problems": len(problems), "spans": len(tracer.spans)}


def assembled_seconds(jobs: list) -> float:
    """A command's wall time over the run's repeats of it: for each segment
    that every job repeats (a training's rounds, one by one, and the rest of
    the command; a bound job is one segment), the nearest-rank p75 of its
    seconds over the jobs, summed. The jobs run at different times, so a
    fast spell of the machine that covers a few of them leaves most segments'
    p75 in the usual state."""
    return sum(percentile(list(seconds), 0.75) for seconds in zip(*(j.segments for j in jobs)))


def per_layer_metrics(tracer: Tracer, overhead_frac: float) -> dict:
    stats = tracer.span_stats()

    def calls(name):
        return stats[name]["calls"] if name in stats else 0

    def per_call(name, scale):
        return scale * stats[name]["total_s"] / calls(name) if calls(name) else 0.0

    us, ms, s = 1e6, 1e3, 1.0
    cu_calls = calls("federation.client_update")
    slack_s = stats["bounds.estimate_slack"]["total_s"] if calls("bounds.estimate_slack") else 0.0
    gflop = tracer.slack_flop / 1e9
    m = {
        "nn.backward.calls": (calls("nn.backward"), "count"),
        "nn.backward.us_per_call": (per_call("nn.backward", us), "us"),
        "nn.softmax_nll.us_per_call": (per_call("nn.softmax_nll", us), "us"),
        "nn.ops_per_step": (
            tracer.nn_ops_in_client_update / tracer.client_steps if tracer.client_steps else 0.0,
            "ops/step",
        ),
        "distributions.kl_diag.calls": (calls("distributions.kl_diag"), "count"),
        "distributions.kl_diag.us_per_call": (per_call("distributions.kl_diag", us), "us"),
        "distributions.sample_reparam.us_per_call": (per_call("distributions.sample_reparam", us), "us"),
        "model.embed.us_per_call": (per_call("model.embed", us), "us"),
        "model.construct_posterior.calls": (calls("model.construct_posterior"), "count"),
        "model.construct_posterior.us_per_call": (per_call("model.construct_posterior", us), "us"),
        "model.forward_batch.us_per_call": (per_call("model.forward_batch", us), "us"),
        "model.minibatch_loss.us_per_call": (per_call("model.minibatch_loss", us), "us"),
        "model.predict_logits.us_per_call": (per_call("model.predict_logits", us), "us"),
        "federation.client_update.calls": (cu_calls, "count"),
        "federation.client_update.us_per_call": (per_call("federation.client_update", us), "us"),
        "federation.client_update.self_us_per_call": (
            us * stats["federation.client_update"]["self_s"] / cu_calls if cu_calls else 0.0,
            "us",
        ),
        "federation.steps": (tracer.client_steps, "count"),
        "federation.server_apply.us_per_call": (per_call("federation.server_apply", us), "us"),
        "federation.evaluate.ms_per_call": (per_call("federation.evaluate", ms), "ms"),
        "federation.evaluate.client_evals": (tracer.evaluate_clients, "count"),
        "federation.sample_cohort.us_per_call": (per_call("federation.sample_cohort", us), "us"),
        "seeding.substream.calls": (calls("seeding.substream"), "count"),
        "seeding.substream.us_per_call": (per_call("seeding.substream", us), "us"),
        "bounds.client_posterior_audit.us_per_call": (per_call("bounds.client_posterior_audit", us), "us"),
        "bounds.estimate_slack.s": (per_call("bounds.estimate_slack", s), "s"),
        "bounds.estimate_slack.gflop": (gflop, "GFLOP"),
        "bounds.estimate_slack.gflop_per_s": (gflop / slack_s if slack_s else 0.0, "GFLOP/s"),
        "bounds.bound_holds_check.s": (per_call("bounds.bound_holds_check", s), "s"),
        "datagen.generate_hierarchical.s": (per_call("datagen.generate_hierarchical", s), "s"),
        "cli.save_params.ms": (per_call("cli.save_params", ms), "ms"),
        "cli.write_metrics.ms": (per_call("cli.write_metrics", ms), "ms"),
        "trace.overhead_frac": (overhead_frac, "fraction"),
    }
    return m


def self_test(tracer: Tracer, workload: str) -> list[str]:
    """Every span the workload uses was called; every bypassed one was not."""
    stats = tracer.span_stats()
    problems = [f"{name} was never called on {workload}"
                for name in sorted(EXPECTED_CALLED[workload]) if name not in stats]
    problems += [f"{name} was called {stats[name]['calls']} times on {workload}"
                 for name in sorted(EXPECTED_UNCALLED[workload]) if name in stats]
    if workload == "bound-audit":
        job = tracer.span_stats(op_prefix="job")
        problems += [f"{name} was called {job[name]['calls']} times in the bound job"
                     for name in sorted(UNCALLED_IN_BOUND_JOB) if name in job]
    return problems
