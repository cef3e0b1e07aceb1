"""Command-line harness: generate / train / ablate / bound / eval.

Every output file starts with a provenance header carrying the resolved
configuration and seed. Metrics are CSV with the fixed schema
``round,loss,part_acc,nonpart_acc,kl_mean,timestamp``; the timestamp column
is a deterministic logical clock (cumulative client optimizer steps) so
that identical runs produce byte-identical files.

Exit codes: 0 success, 2 configuration error, 3 I/O or dataset-format
error, 4 runtime numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import struct
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from .config import ConfigError, ExperimentConfig, check_cohort_fits, parse_config
from .datagen import (
    DatasetVersionError,
    FederatedDataset,
    GroundTruth,
    MalformedDatasetError,
    _Reader,
    generate_hierarchical,
    load_dataset,
    save_dataset,
)
from .federation import (
    ALGORITHMS,
    DegenerateRoundError,
    RunResult,
    TrainConfig,
    eval_batches,
    evaluate,
    run_training,
)
from .model import ArchConfig, FedVIParams, block_shapes
from .nn import NonFiniteError
from .seeding import DOMAIN_ABLATION, DOMAIN_BOUND, DOMAIN_BOUND_CHECK, substream

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

PARAMS_MAGIC = b"FVPM"
PARAMS_VERSION = 1

# metrics.csv's columns in order, each with the type its text parses to.
METRICS_COLUMNS = dict(
    round=int, loss=float, part_acc=float, nonpart_acc=float, kl_mean=float, timestamp=int
)
METRICS_HEADER = ",".join(METRICS_COLUMNS)


class ParamsFormatError(ValueError):
    """Parameter file is malformed or has an unsupported version."""


def save_params(params: FedVIParams, path) -> None:
    arch_json = json.dumps(dataclasses.asdict(params.arch), sort_keys=True).encode("utf-8")
    parts = [PARAMS_MAGIC, struct.pack("<I", PARAMS_VERSION)]
    parts.append(struct.pack("<I", len(arch_json)))
    parts.append(arch_json)
    parts.append(struct.pack("<I", len(params.blocks)))
    for block_name, arr in params.blocks.items():
        name = block_name.encode("utf-8")
        parts.append(struct.pack("<I", len(name)))
        parts.append(name)
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        parts.append(arr.astype("<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def _arch_from_header(text: bytes, path) -> ArchConfig:
    """The ``ArchConfig`` whose fields a params.bin header lists, one key each."""
    try:
        header = json.loads(text)
        if not isinstance(header, dict):
            raise ValueError("not a JSON object")
        # Older headers carry "dropout_rate"; the model has no dropout, so only 0.0 loads.
        dropout_rate = header.pop("dropout_rate", 0.0)
        if dropout_rate != 0.0:
            raise ValueError(f"dropout_rate {dropout_rate} is no longer supported")
        names = {f.name for f in dataclasses.fields(ArchConfig)}
        if set(header) != names:
            raise ValueError(
                f"missing keys {sorted(names - set(header))}, "
                f"unknown keys {sorted(set(header) - names)}"
            )
        return ArchConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in header.items()})
    except (ValueError, TypeError) as exc:
        raise ParamsFormatError(f"{path}: bad architecture header: {exc}") from exc


def load_params(path) -> FedVIParams:
    r = _Reader(path, ParamsFormatError)
    if r.take(4) != PARAMS_MAGIC:
        raise ParamsFormatError(f"{path}: not a parameter file (bad magic)")
    (version,) = r.unpack("<I")
    if version != PARAMS_VERSION:
        raise ParamsFormatError(f"{path}: version {version}, expected {PARAMS_VERSION}")
    (arch_len,) = r.unpack("<I")
    arch = _arch_from_header(r.take(arch_len), path)
    (n_blocks,) = r.unpack("<I")
    expected = block_shapes(arch)
    if n_blocks != len(expected):
        raise ParamsFormatError(
            f"{path}: {n_blocks} parameter blocks; the architecture has {len(expected)}"
        )
    blocks = []
    for want in expected.items():
        (name_len,) = r.unpack("<I")
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParamsFormatError(f"{path}: block name is not UTF-8 ({exc})") from exc
        (ndim,) = r.unpack("<I")
        shape = r.unpack(f"<{ndim}Q")
        if (name, shape) != want:
            raise ParamsFormatError(
                f"{path}: block {name!r} of shape {shape}; the architecture has "
                f"{want[0]!r} of shape {want[1]}"
            )
        arr = np.frombuffer(r.take(8 * math.prod(shape)), dtype="<f8")
        if not np.isfinite(arr).all():
            raise ParamsFormatError(f"{path}: parameter {name!r} contains non-finite entries")
        blocks.append(arr)
    if r.pos != len(r.blob):
        raise ParamsFormatError(f"{path}: {len(r.blob) - r.pos} bytes after the last block")
    return FedVIParams(np.concatenate(blocks, dtype=np.float64), arch)


def _load_params_for(cfg: ExperimentConfig, params_path) -> FedVIParams:
    """Saved parameters, checked against the configured input and class counts."""
    params = load_params(params_path)
    trained = (params.arch.input_dim, params.arch.num_classes)
    if trained != (cfg.arch.input_dim, cfg.arch.num_classes):
        raise ConfigError(
            f"params {params_path} were trained for input_dim={trained[0]}, "
            f"num_classes={trained[1]}; config has {cfg.arch.input_dim}, "
            f"{cfg.arch.num_classes}"
        )
    return params


def _provenance(kind: str, cfg: ExperimentConfig) -> list[str]:
    """A file's '#'-prefixed header: its kind, then the resolved configuration."""
    return [f"# fedvi {kind} v1"] + [f"# {line}" for line in cfg.provenance_lines()]


def _fmt(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_metrics(result: RunResult, cfg: ExperimentConfig, path) -> None:
    """CSV of evaluated rounds behind a '#'-prefixed provenance header."""
    lines = _provenance("metrics", cfg) + [METRICS_HEADER]
    for r in result.reports:
        if r.part_acc is None:
            continue
        lines.append(
            ",".join(
                [
                    str(r.round_index),
                    _fmt(r.mean_client_loss),
                    _fmt(r.part_acc),
                    _fmt(r.nonpart_acc),
                    _fmt(r.kl_mean),
                    str(r.cumulative_steps),
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_metrics(path) -> list[dict]:
    """Parse a metrics CSV, rejecting any unknown schema."""
    rows = []
    header_seen = False
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("#") or not line.strip():
            continue
        if not header_seen:
            if line != METRICS_HEADER:
                raise ValueError(f"{path}: unknown metrics schema {line!r}")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != len(METRICS_COLUMNS):
            raise ValueError(f"{path}: malformed metrics row {line!r}")
        rows.append({key: cast(text) for (key, cast), text in zip(METRICS_COLUMNS.items(), parts)})
    if not header_seen:
        raise ValueError(f"{path}: missing metrics header")
    return rows


def _dataset_for(cfg: ExperimentConfig) -> tuple[FederatedDataset, GroundTruth | None]:
    if cfg.gen is not None:
        return generate_hierarchical(cfg.gen)
    ds = load_dataset(cfg.dataset_path)
    d = ds.clients[0].x.shape[1]
    if d != cfg.arch.input_dim or ds.num_classes != cfg.arch.num_classes:
        raise ConfigError(
            f"dataset {cfg.dataset_path} has input_dim={d}, num_classes={ds.num_classes}; "
            f"config says {cfg.arch.input_dim}, {cfg.arch.num_classes}"
        )
    check_cohort_fits(cfg.train.cohort_size, len(ds.clients), ds.holdout_count, cfg.dataset_path)
    return ds, None


def _check_evaluable(
    ds: FederatedDataset, cfg: TrainConfig, arch: ArchConfig, training: bool = False
) -> None:
    """ConfigError unless the participating clients, and the holdout if it
    is nonempty, each have a client with a test batch (``eval_batches``):
    an evaluation with nothing to score has no accuracy to report.

    With ``training``, a population in which no client has a training batch
    passes: round 1 fails on it first, with an error naming those batches.
    """
    if training and not any(
        arch.batch_slices(c.n_train, cfg.batch_size) for c in ds.participating_clients()
    ):
        return
    for group, clients in (
        ("participating", ds.participating_clients()),
        ("holdout", ds.holdout_clients()),
    ):
        if clients and not any(eval_batches(c.n_test, cfg, arch) for c in clients):
            raise ConfigError(
                f"no {group} client has a test batch of ArchConfig.min_batch = "
                f"{arch.min_batch} rows to evaluate"
            )


def _out_dir(cfg: ExperimentConfig, out_arg: str | None) -> Path:
    out = Path(out_arg) if out_arg else Path("runs") / cfg.label
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_generate(cfg: ExperimentConfig, out_arg: str | None) -> int:
    if cfg.gen is None:
        raise ConfigError("generate requires data.source = generate")
    out = _out_dir(cfg, out_arg)
    ds, _ = _dataset_for(cfg)
    path = out / "dataset.bin"
    save_dataset(ds, path, cfg.gen)
    sizes = [c.n for c in ds.clients]
    print(
        f"wrote {path}: {len(ds.clients)} clients ({ds.holdout_count} holdout), "
        f"{sum(sizes)} examples, {ds.num_classes} classes"
    )
    return EXIT_OK


def cmd_train(cfg: ExperimentConfig, out_arg: str | None) -> int:
    out = _out_dir(cfg, out_arg)
    ds, _ = _dataset_for(cfg)
    _check_evaluable(ds, cfg.train, cfg.arch, training=True)
    result = run_training(cfg.train, cfg.arch, ds)
    write_metrics(result, cfg, out / "metrics.csv")
    save_params(result.state.params, out / "params.bin")
    summary = {
        "label": cfg.label,
        "seed": cfg.seed,
        "algorithm": cfg.train.algorithm,
        "rounds": cfg.train.rounds,
        "skipped_clients": result.skipped_clients,
        **result.summary,
        "config": cfg.provenance_lines(),
    }
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if result.summary["eval_rounds"] == 0:
        print(f"{cfg.label}: no evaluated rounds (rounds={cfg.train.rounds})")
    else:
        gap = result.summary["gap"]
        print(
            f"{cfg.label}: part_acc={result.summary['part_acc']:.4f} "
            f"nonpart_acc={_fmt(result.summary['nonpart_acc'])} "
            f"gap={_fmt(gap)} over last {result.summary['window']} rounds"
        )
    return EXIT_OK


def _ablation_seed(base_seed: int, index: int) -> int:
    state = np.random.SeedSequence((base_seed, DOMAIN_ABLATION, index)).generate_state(2)
    return int(state[0]) << 32 | int(state[1])


def ablation_grid(cfg: ExperimentConfig, taus: str) -> list[float]:
    """The KL weights a sweep trains: the comma-separated ``taus`` sorted,
    plus zero.

    Zero is always included so the participation gap has its reference
    point. An empty list, an entry that is not a finite number >= 0, or a
    config whose algorithm has no KL weight, is a configuration error.
    """
    grid = set()
    for text in filter(None, (t.strip() for t in taus.split(","))):
        try:
            tau = float(text)
        except ValueError:
            raise ConfigError(f"--taus: {text!r} is not a number") from None
        if not (math.isfinite(tau) and tau >= 0):
            raise ConfigError(f"--taus: a KL weight must be finite and >= 0, got {text}")
        grid.add(tau + 0.0)  # -0.0 reads 0.0
    if not grid:
        raise ConfigError("ablation requires a nonempty tau list")
    if cfg.train.algorithm != "fedvi":
        raise ConfigError(
            f"ablation sweeps fedvi's KL weight; train.algorithm is {cfg.train.algorithm!r}"
        )
    return sorted(grid | {0.0})


def _replace_lines(path: Path, lines: list[str]) -> None:
    """Write ``lines`` to ``path`` through a temporary file in the same
    directory, so a write that fails or is killed leaves the old file whole."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def cmd_ablate(cfg: ExperimentConfig, taus: str, out_arg: str | None) -> int:
    """One full training run per KL weight of the grid over a shared dataset,
    each under its own derived seed. ``ablation.csv`` is replaced after
    every run, so a sweep that fails or is killed keeps the rows it finished."""
    grid = ablation_grid(cfg, taus)
    ds, _ = _dataset_for(cfg)
    _check_evaluable(ds, cfg.train, cfg.arch, training=True)
    path = _out_dir(cfg, out_arg) / "ablation.csv"
    lines = _provenance("ablation", cfg) + ["tau,part_acc,nonpart_acc,gap"]
    _replace_lines(path, lines)
    for i, tau in enumerate(grid):
        train_cfg = dataclasses.replace(cfg.train, tau=tau, seed=_ablation_seed(cfg.seed, i))
        s = run_training(train_cfg, cfg.arch, ds).summary
        part, nonpart, gap = (_fmt(s[key]) for key in ("part_acc", "nonpart_acc", "gap"))
        lines.append(f"{_fmt(tau)},{part},{nonpart},{gap}")
        _replace_lines(path, lines)
        print(f"tau={tau:g}: part={part} nonpart={nonpart} gap={gap}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_eval(cfg: ExperimentConfig, params_path: str, out_arg: str | None) -> int:
    out = _out_dir(cfg, out_arg)
    ds, _ = _dataset_for(cfg)
    params = _load_params_for(cfg, params_path)
    _check_evaluable(ds, cfg.train, params.arch)
    part = evaluate(params, ds.participating_clients(), cfg.train)
    report = {
        "params": str(params_path),
        "algorithm": cfg.train.algorithm,
        "part_acc": part.accuracy,
        "part_excluded": part.excluded,
        "config": cfg.provenance_lines(),
    }
    if ds.holdout_count:
        nonpart = evaluate(params, ds.holdout_clients(), cfg.train)
        report["nonpart_acc"] = nonpart.accuracy
        report["nonpart_excluded"] = nonpart.excluded
        report["gap"] = part.accuracy - nonpart.accuracy
    (out / "eval.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps({k: v for k, v in report.items() if k != "config"}, sort_keys=True))
    return EXIT_OK


def _timed(fn, *args):
    """``fn(*args)`` and its wall seconds."""
    t0 = time.perf_counter()
    return fn(*args), time.perf_counter() - t0


def cmd_bound(cfg: ExperimentConfig, params_path: str, out_arg: str | None, check: bool) -> int:
    """The bound's terms on the clients with an audit batch, and with
    ``check`` its holding fraction over fresh-dataset trials.

    The audits and the slack read ``DOMAIN_BOUND``'s stream, in that order;
    the check reads ``DOMAIN_BOUND_CHECK``'s, on a worker thread that runs
    beside the slack, and only its RHS waits for the slack. A slack failure
    is reported before a check failure, and no thread outlives the call.
    """
    t_job = time.perf_counter()
    if cfg.gen is None:
        raise ConfigError("bound requires data.source = generate (slack needs the generator)")
    if check and cfg.bound_trials == 0:
        raise ConfigError("bound --check needs bound.trials >= 1, got 0")
    out = _out_dir(cfg, out_arg)
    ds, task = _dataset_for(cfg)
    params = _load_params_for(cfg, params_path)
    rng = substream(cfg.seed, DOMAIN_BOUND)

    audits = {
        c.client_id: bounds_mod.client_posterior_audit(params, c.x, c.y, cfg.pac, rng)
        for c in ds.clients
    }
    audits = {cid: audit for cid, audit in audits.items() if audit is not None}
    if not audits:
        raise ConfigError(
            f"no client has a batch of ArchConfig.min_batch = {params.arch.min_batch} rows to audit"
        )
    for cid, audit in audits.items():
        if math.isnan(audit.gibbs_nll):
            raise NonFiniteError("empirical risk is NaN").add_context(client=cid)
    emp = sum(a.gibbs_nll for a in audits.values())
    kl_total = sum(a.kl for a in audits.values())

    with ThreadPoolExecutor(max_workers=1) as pool:
        checking = None
        if check:
            checking = pool.submit(
                _timed, bounds_mod.bound_holds_check,
                task, params, cfg.pac, cfg.bound_trials, substream(cfg.seed, DOMAIN_BOUND_CHECK),
            )
        slack_scaled, slack_s = _timed(
            bounds_mod.estimate_slack,
            task.clients(list(audits)),  # a generated client's id is its index
            bounds_mod.generator_prior(task),
            cfg.pac.eta,
            cfg.pac.delta,
            cfg.pac.slack_samples,
            cfg.pac.slack_samples,
            rng,
        )
    slack_moment = slack_scaled - math.log(1.0 / cfg.pac.delta)
    rhs = bounds_mod.pacbayes_rhs(emp, kl_total, cfg.pac.eta, cfg.pac.delta, slack_moment)
    report = {
        "empirical_risk": emp,
        "kl_local": kl_total,
        "kl_global": 0.0,
        "slack_moment": slack_moment,
        "slack_delta_scaled": slack_scaled,
        "eta": cfg.pac.eta,
        "delta": cfg.pac.delta,
        "rhs": rhs,
    }
    seconds = {"slack_s": slack_s}
    if checking is not None:
        trials, seconds["check_s"] = checking.result()
        report["holds_fraction"] = trials.holding_fraction(cfg.pac, slack_scaled)
        report["trials"] = len(trials.true_risks)

    seconds["job_s"] = time.perf_counter() - t_job
    keys = list(report)
    lines = _provenance("bound", cfg) + [",".join(keys), ",".join(_fmt(report[k]) for k in keys)]
    (out / "bound.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    report["config"] = cfg.provenance_lines()
    (out / "bound.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(
        f"empirical={emp:.4f} kl={kl_total:.4f} (global contribution 0: point-estimate "
        f"global posterior) slack={slack_scaled:.4f} rhs={rhs:.4f}"
        + (f" holds={report['holds_fraction']:.2f}" if check else "")
        + "".join(f" {name}={value:.2f}" for name, value in seconds.items())
        + f" skipped={len(ds.clients) - len(audits)}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """Subcommands and their flags. A flag that overrides a config key has
    the key as its ``dest``; each subcommand takes only the flags it reads."""
    parser = argparse.ArgumentParser(prog="fedvi", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, algorithm: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", dest="run.seed", metavar="N", type=int, help="override run seed")
        if algorithm:
            p.add_argument("--algorithm", dest="train.algorithm", choices=ALGORITHMS)
        return p

    command("generate", "write a synthetic dataset")
    p_train = command("train", "run federated training", algorithm=True)
    p_train.add_argument("--tau", dest="train.tau", metavar="T", type=float, help="override tau")
    p_ablate = command("ablate", "sweep the KL weight")
    p_ablate.add_argument(
        "--taus", default="0,1e-6,1e-4,1e-2,1", help="comma-separated KL weights"
    )
    p_eval = command("eval", "evaluate saved parameters", algorithm=True)
    p_eval.add_argument("--params", required=True)
    p_bound = command("bound", "evaluate the generalization bound")
    p_bound.add_argument("--params", required=True)
    p_bound.add_argument("--check", action="store_true", help="run the holds-fraction trials")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        tuple(dest.split(".")): value
        for dest, value in vars(args).items()
        if "." in dest and value is not None
    }
    try:
        cfg = parse_config(args.config, overrides)
        if args.command == "generate":
            return cmd_generate(cfg, args.out)
        if args.command == "train":
            return cmd_train(cfg, args.out)
        if args.command == "ablate":
            return cmd_ablate(cfg, args.taus, args.out)
        if args.command == "eval":
            return cmd_eval(cfg, args.params, args.out)
        if args.command == "bound":
            return cmd_bound(cfg, args.params, args.out, args.check)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, DegenerateRoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MalformedDatasetError, DatasetVersionError, ParamsFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NonFiniteError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
