"""Experiment configuration: a flat, line-oriented ``key = value`` format.

Sections group related keys ([data], [arch], [train], [bound], [run]);
every key has a documented default, unknown keys are rejected with their
line number, and the fully resolved configuration (defaults included) can
be rendered back out for provenance headers. Rendering then re-parsing is
the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import PacBayesConfig
from .datagen import GenConfig
from .federation import ALGORITHMS, TrainConfig
from .model import ArchConfig


class ConfigError(ValueError):
    """Invalid configuration; message carries key name and line number."""


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in text.split(","))


_CONVERTERS = {
    "int": int,
    "float": float,
    "str": str,
    "bool": _parse_bool,
    "int_list": _parse_int_list,
}

# (section, key) -> (type name, default). None means "no default, optional".
SCHEMA: dict[tuple[str, str], tuple[str, object]] = {
    ("data", "source"): ("str", "generate"),
    ("data", "path"): ("str", None),
    ("data", "clients"): ("int", 40),
    ("data", "holdout"): ("int", 8),
    ("data", "n_min"): ("int", 200),
    ("data", "n_max"): ("int", 400),
    ("data", "input_dim"): ("int", 16),
    ("data", "num_classes"): ("int", 5),
    ("data", "sigma_beta"): ("float", 2.0),
    ("data", "input_shift_scale"): ("float", 1.0),
    ("data", "data_seed"): ("int", None),
    ("arch", "embed_widths"): ("int_list", (32, 20)),
    ("arch", "local_dim"): ("int", 4),
    ("arch", "global_dim"): ("int", 16),
    ("arch", "posterior_widths"): ("int_list", (64, 64)),
    ("arch", "support_fraction"): ("float", 0.5),
    ("arch", "mean_damp"): ("float", 2.0),
    ("arch", "logscale_damp"): ("float", 2.0),
    ("arch", "scale_floor"): ("float", 1e-5),
    ("train", "rounds"): ("int", 200),
    ("train", "cohort_size"): ("int", 8),
    ("train", "client_lr"): ("float", 0.05),
    ("train", "server_lr"): ("float", 1.0),
    ("train", "server_momentum"): ("float", 0.9),
    ("train", "local_epochs"): ("int", 1),
    ("train", "batch_size"): ("int", 32),
    ("train", "tau"): ("float", 0.01),
    ("train", "algorithm"): ("str", "fedvi"),
    ("train", "eval_every"): ("int", 10),
    ("bound", "eta"): ("float", 1.0),
    ("bound", "delta"): ("float", 0.05),
    ("bound", "slack_samples"): ("int", 200),
    ("bound", "posterior_samples"): ("int", 16),
    ("bound", "trials"): ("int", 100),
    ("run", "seed"): ("int", 0),
    ("run", "label"): ("str", "run"),
    ("run", "parallel"): ("bool", False),
}

_SECTIONS = ("data", "arch", "train", "bound", "run")


@dataclass
class ExperimentConfig:
    """Resolved experiment settings for one run."""

    values: dict[tuple[str, str], object]
    gen: GenConfig | None
    dataset_path: str | None
    arch: ArchConfig
    train: TrainConfig
    pac: PacBayesConfig
    bound_trials: int
    seed: int
    label: str
    parallel: bool

    def render(self) -> str:
        """Canonical text form with every resolved value (defaults applied)."""
        lines = []
        for section in _SECTIONS:
            lines.append(f"[{section}]")
            for (sec, key), value in self.values.items():
                if sec != section or value is None:
                    continue
                if isinstance(value, tuple):
                    text = ",".join(str(v) for v in value)
                elif isinstance(value, bool):
                    text = "true" if value else "false"
                elif isinstance(value, float):
                    text = repr(value)
                else:
                    text = str(value)
                lines.append(f"{key} = {text}")
            lines.append("")
        return "\n".join(lines)

    def provenance_lines(self) -> list[str]:
        return [line for line in self.render().splitlines() if line]


def _read_entries(text: str, origin: str) -> dict[tuple[str, str], object]:
    entries: dict[tuple[str, str], tuple[str, int]] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"{origin}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {line!r}")
        if section is None:
            raise ConfigError(f"{origin}:{lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        if (section, key) not in SCHEMA:
            raise ConfigError(f"{origin}:{lineno}: unknown key '{section}.{key}'")
        if (section, key) in entries:
            raise ConfigError(f"{origin}:{lineno}: duplicate key '{section}.{key}'")
        entries[(section, key)] = (value.strip(), lineno)

    values: dict[tuple[str, str], object] = {}
    for spec_key, (type_name, default) in SCHEMA.items():
        if spec_key in entries:
            text_value, lineno = entries[spec_key]
            try:
                values[spec_key] = _CONVERTERS[type_name](text_value)
            except ValueError as exc:
                raise ConfigError(
                    f"{origin}:{lineno}: key '{spec_key[0]}.{spec_key[1]}': {exc}"
                ) from exc
        else:
            values[spec_key] = default
    return values


def build_config(
    values: dict[tuple[str, str], object],
    origin: str = "<config>",
    seed_override: int | None = None,
    algorithm_override: str | None = None,
    tau_override: float | None = None,
) -> ExperimentConfig:
    v = dict(values)
    if seed_override is not None:
        v[("run", "seed")] = seed_override
    if algorithm_override is not None:
        v[("train", "algorithm")] = algorithm_override
    if tau_override is not None:
        v[("train", "tau")] = tau_override
    seed = v[("run", "seed")]

    def get(section: str, key: str):
        return v[(section, key)]

    source = get("data", "source")
    if source not in ("generate", "file"):
        raise ConfigError(f"{origin}: data.source must be 'generate' or 'file', got {source!r}")
    if get("train", "algorithm") not in ALGORITHMS:
        raise ConfigError(
            f"{origin}: train.algorithm must be one of {ALGORITHMS}, "
            f"got {get('train', 'algorithm')!r}"
        )

    gen = None
    dataset_path = None
    if source == "generate":
        data_seed = get("data", "data_seed")
        v[("data", "data_seed")] = seed if data_seed is None else data_seed
        try:
            gen = GenConfig(
                c=get("data", "clients"),
                n_range=(get("data", "n_min"), get("data", "n_max")),
                d=get("data", "input_dim"),
                num_classes=get("data", "num_classes"),
                sigma_beta=get("data", "sigma_beta"),
                input_shift_scale=get("data", "input_shift_scale"),
                seed=v[("data", "data_seed")],
                holdout_count=get("data", "holdout"),
            )
        except ValueError as exc:
            raise ConfigError(f"{origin}: [data]: {exc}") from exc
        participants = gen.c - gen.holdout_count
        if get("train", "cohort_size") > participants:
            raise ConfigError(
                f"{origin}: train.cohort_size = {get('train', 'cohort_size')} exceeds "
                f"data.clients - data.holdout = {participants}"
            )
    else:
        dataset_path = get("data", "path")
        if not dataset_path:
            raise ConfigError(f"{origin}: data.source = file requires data.path")

    try:
        arch = ArchConfig(
            input_dim=get("data", "input_dim"),
            embed_widths=get("arch", "embed_widths"),
            local_dim=get("arch", "local_dim"),
            global_dim=get("arch", "global_dim"),
            num_classes=get("data", "num_classes"),
            posterior_widths=get("arch", "posterior_widths"),
            support_fraction=get("arch", "support_fraction"),
            mean_damp=get("arch", "mean_damp"),
            logscale_damp=get("arch", "logscale_damp"),
            scale_floor=get("arch", "scale_floor"),
        )
        train = TrainConfig(
            rounds=get("train", "rounds"),
            cohort_size=get("train", "cohort_size"),
            client_lr=get("train", "client_lr"),
            server_lr=get("train", "server_lr"),
            server_momentum=get("train", "server_momentum"),
            local_epochs=get("train", "local_epochs"),
            batch_size=get("train", "batch_size"),
            tau=get("train", "tau"),
            algorithm=get("train", "algorithm"),
            seed=seed,
            eval_every=get("train", "eval_every"),
        )
        pac = PacBayesConfig(
            eta=get("bound", "eta"),
            delta=get("bound", "delta"),
            slack_samples=get("bound", "slack_samples"),
            posterior_samples=get("bound", "posterior_samples"),
        )
    except ValueError as exc:
        raise ConfigError(f"{origin}: {exc}") from exc

    return ExperimentConfig(
        values=v,
        gen=gen,
        dataset_path=dataset_path,
        arch=arch,
        train=train,
        pac=pac,
        bound_trials=get("bound", "trials"),
        seed=seed,
        label=get("run", "label"),
        parallel=get("run", "parallel"),
    )


def parse_config_text(
    text: str,
    origin: str = "<config>",
    seed_override: int | None = None,
    algorithm_override: str | None = None,
    tau_override: float | None = None,
) -> ExperimentConfig:
    values = _read_entries(text, origin)
    return build_config(values, origin, seed_override, algorithm_override, tau_override)


def parse_config(
    path,
    seed_override: int | None = None,
    algorithm_override: str | None = None,
    tau_override: float | None = None,
) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_config_text(text, str(path), seed_override, algorithm_override, tau_override)
