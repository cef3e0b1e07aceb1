"""Experiment configuration: a flat, line-oriented ``key = value`` format.

Sections group related keys ([data], [arch], [train], [bound], [run]);
every key has a documented default, unknown keys are rejected with their
line number, and the fully resolved configuration (defaults included) can
be rendered back out for provenance headers. Rendering then re-parsing is
the identity.
"""

from __future__ import annotations

import dataclasses
import math

from .bounds import PacBayesConfig
from .datagen import GenConfig
from .federation import TrainConfig
from .model import ArchConfig


class ConfigError(ValueError):
    """Invalid configuration; message carries key name and line number."""


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in text.split(","))


# Keyed by annotation text: under ``from __future__ import annotations`` a
# dataclass field's ``type`` is the string it was written as.
_CONVERTERS = {
    "int": int,
    "float": float,
    "str": str,
    "tuple[int, ...]": _parse_int_tuple,
}

# Fields that build_config fills from another section: [data] and [run].
_FILLED_ELSEWHERE = ("input_dim", "num_classes", "seed")


def _field_rows(section: str, cls) -> dict[tuple[str, str], tuple[str, object]]:
    """One schema row per field of ``cls``: the field's type and default."""
    fields = [f for f in dataclasses.fields(cls) if f.name not in _FILLED_ELSEWHERE]
    for f in fields:
        if f.default is dataclasses.MISSING or f.type not in _CONVERTERS:
            raise TypeError(f"{cls.__name__}.{f.name} needs a default and a config type")
    return {(section, f.name): (f.type, f.default) for f in fields}


# (section, key) -> (type name, default), in render order. None means "no
# default, optional". The [arch], [train] and [bound] rows are the fields of
# ArchConfig, TrainConfig and PacBayesConfig (bound.trials aside), which
# declare their types and defaults; build_config fills them by name.
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
    **_field_rows("arch", ArchConfig),
    **_field_rows("train", TrainConfig),
    **_field_rows("bound", PacBayesConfig),
    ("bound", "trials"): ("int", 100),
    ("run", "seed"): ("int", 0),
    ("run", "label"): ("str", "run"),
}

_SECTIONS = ("data", "arch", "train", "bound", "run")


@dataclasses.dataclass
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


def check_cohort_fits(cohort_size: int, clients: int, holdout: int, origin: str) -> None:
    """ConfigError unless a cohort fits among the clients that are not held out."""
    if cohort_size > clients - holdout:
        raise ConfigError(
            f"{origin}: train.cohort_size = {cohort_size} exceeds "
            f"data.clients - data.holdout = {clients - holdout}"
        )


def build_config(
    values: dict[tuple[str, str], object],
    origin: str = "<config>",
    overrides: dict[tuple[str, str], object] | None = None,
) -> ExperimentConfig:
    """Resolve parsed values into settings; ``overrides`` replace values first,
    so that the provenance header records them."""
    v = dict(values)
    for spec_key, value in (overrides or {}).items():
        if spec_key not in SCHEMA:
            raise ConfigError(f"{origin}: unknown override key {spec_key!r}")
        v[spec_key] = value
    for (section, key), value in v.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{origin}: {section}.{key} = {value!r} is not finite")
    for section, key in (("run", "seed"), ("data", "data_seed"), ("bound", "trials")):
        if v[(section, key)] is not None and v[(section, key)] < 0:
            raise ConfigError(f"{origin}: {section}.{key} = {v[(section, key)]} is negative")
    seed = v[("run", "seed")]

    def get(section: str, key: str):
        return v[(section, key)]

    def fields(section: str) -> dict[str, object]:
        return {key: value for (sec, key), value in v.items() if sec == section}

    source = get("data", "source")
    if source not in ("generate", "file"):
        raise ConfigError(f"{origin}: data.source must be 'generate' or 'file', got {source!r}")

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
        check_cohort_fits(get("train", "cohort_size"), gen.c, gen.holdout_count, origin)
    else:
        dataset_path = get("data", "path")
        if not dataset_path:
            raise ConfigError(f"{origin}: data.source = file requires data.path")

    bound = fields("bound")
    trials = bound.pop("trials")
    try:
        arch = ArchConfig(
            input_dim=get("data", "input_dim"),
            num_classes=get("data", "num_classes"),
            **fields("arch"),
        )
        train = TrainConfig(seed=seed, **fields("train"))
        pac = PacBayesConfig(**bound)
    except ValueError as exc:
        raise ConfigError(f"{origin}: {exc}") from exc

    return ExperimentConfig(
        values=v,
        gen=gen,
        dataset_path=dataset_path,
        arch=arch,
        train=train,
        pac=pac,
        bound_trials=trials,
        seed=seed,
        label=get("run", "label"),
    )


def parse_config_text(
    text: str,
    origin: str = "<config>",
    overrides: dict[tuple[str, str], object] | None = None,
) -> ExperimentConfig:
    return build_config(_read_entries(text, origin), origin, overrides)


def parse_config(path, overrides: dict[tuple[str, str], object] | None = None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_config_text(text, str(path), overrides)
