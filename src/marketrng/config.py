"""Run configuration: one JSON-serialisable object drives every command."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from marketrng.pipeline import GAP_SCOPES, MIN_OBS
from marketrng.report import DEFAULT_TRIM_FRACTIONS, TRIM_MODES, _is_real
from marketrng.rng import GENERATORS, SYNTHETIC_KINDS, SyntheticSpec
from marketrng.serial import MAX_WINDOW, STREAM_KINDS

CHOICES = {
    "frequency": tuple(MIN_OBS),
    "boundary_mode": ("ignore", "respect"),
    "trim_mode": TRIM_MODES,
    "gap_scope": GAP_SCOPES,
    "recurrence_source": ("returns", "prices"),
}
_LIST_FIELDS = ("stream_kinds", "trim_fractions", "recurrence_ids")  # tuples here, lists in JSON; no repeats

DEFAULT_SYNTHETIC = {
    "kind": "firm_like",
    "count": 4225,
    "length": 227,
    "generator": "pcg64",
    "burn_in": 100,
}


class ConfigError(ValueError):
    """Raised for unusable configuration files or flag combinations."""


def _is_int(value) -> bool:
    # JSON true/false load as bool, which Python counts as an int.
    return isinstance(value, int) and not isinstance(value, bool)


def _is_list_of(value, check) -> bool:
    return isinstance(value, (list, tuple)) and all(map(check, value))


def _read_lengths(path: Path) -> list[int]:
    """One integer of ASCII digits per non-blank line; spaces and tabs around it are ignored."""
    try:
        text = path.read_text(encoding="utf-8-sig")  # which reads CR LF and a lone CR as LF
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read lengths file {path}: {exc}") from exc
    lengths = []
    for number, line in enumerate(text.split("\n"), 1):
        entry = line.strip(" \t")
        if not entry:
            continue
        try:
            if not (entry.isascii() and entry.isdigit()):
                raise ValueError(repr(entry[:40]))
            lengths.append(int(entry))
        except ValueError as exc:  # also an integer past 4,300 digits
            raise ConfigError(f"lengths file {path} line {number} holds a non-integer entry: {exc}") from exc
    return lengths


@dataclass(frozen=True)
class RunConfig:
    input_path: str | None = None
    frequency: str = "monthly"
    stream_kinds: tuple[str, ...] = tuple(STREAM_KINDS)
    max_nu: int = 8
    alpha: float = 0.05
    trim_fractions: tuple[float, ...] = DEFAULT_TRIM_FRACTIONS
    boundary_mode: str = "ignore"
    trim_mode: str = "per_nu"
    gap_scope: str = "life"
    synthetic: dict | None = None
    master_seed: int = 0
    output_dir: str = "out"
    recurrence_ids: tuple[str, ...] = ()
    recurrence_source: str = "returns"

    def validate(self) -> "RunConfig":
        for name, choices in CHOICES.items():
            if getattr(self, name) not in choices:
                raise ConfigError(f"{name} must be one of {choices}")
        if not isinstance(self.input_path, (str, type(None))) or not isinstance(self.output_dir, str):
            raise ConfigError("input_path and output_dir must be strings")
        kinds = self.stream_kinds
        if not kinds or not _is_list_of(kinds, lambda k: isinstance(k, str) and k in STREAM_KINDS):
            raise ConfigError(f"stream kinds must be a non-empty subset of {tuple(STREAM_KINDS)}")
        if not _is_int(self.max_nu) or not 3 <= self.max_nu <= MAX_WINDOW:
            raise ConfigError(f"max_nu must be an integer in [3, {MAX_WINDOW}]")
        if not _is_real(self.alpha) or not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must be a number in (0, 1)")
        if not _is_list_of(self.trim_fractions, lambda p: _is_real(p) and 0.0 <= p < 0.5):
            raise ConfigError("trim fractions must be a list of numbers in [0, 0.5)")
        if not _is_int(self.master_seed):
            raise ConfigError("master_seed must be an integer")
        if not _is_list_of(self.recurrence_ids, lambda i: isinstance(i, str)):
            raise ConfigError("recurrence_ids must be a list of strings")
        for name in _LIST_FIELDS:
            values = getattr(self, name)
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ConfigError(f"{name} lists {repeated[0]!r} more than once")
        if self.synthetic is not None:
            self._validate_synthetic(self.synthetic)
        return self

    @staticmethod
    def _validate_synthetic(spec: dict) -> None:
        if not isinstance(spec, dict):
            raise ConfigError("synthetic must be a JSON object")
        unknown = set(spec) - {*DEFAULT_SYNTHETIC, "lengths_file"}
        if unknown:
            raise ConfigError(f"unknown synthetic key(s): {', '.join(sorted(unknown))}")
        for key, allowed in (("kind", SYNTHETIC_KINDS), ("generator", GENERATORS)):
            if spec.get(key, DEFAULT_SYNTHETIC[key]) not in allowed:
                raise ConfigError(f"synthetic {key} must be {' or '.join(map(repr, allowed))}")
        count = spec.get("count")
        if not _is_int(count) or count < 1:
            raise ConfigError("synthetic count must be a positive integer")
        length = spec.get("length")
        if length is not None and (not _is_int(length) or length < 1):
            raise ConfigError("synthetic length must be a positive integer")
        if not isinstance(spec.get("lengths_file", ""), str):
            raise ConfigError("synthetic lengths_file must be a path string")
        if (length is None) == (not spec.get("lengths_file")):
            raise ConfigError("synthetic spec needs 'length' or 'lengths_file', not both")
        burn_in = spec.get("burn_in", DEFAULT_SYNTHETIC["burn_in"])
        if not _is_int(burn_in) or burn_in < 0:
            raise ConfigError("synthetic burn_in must be a non-negative integer")

    def synthetic_spec(self) -> tuple[SyntheticSpec, dict]:
        """The ``synthetic`` block over ``DEFAULT_SYNTHETIC``: its spec, and its ``synthetic_resolved`` echo."""
        spec = {**DEFAULT_SYNTHETIC, **(self.synthetic or {})}
        count = spec["count"]
        if spec.get("lengths_file"):
            lengths = _read_lengths(Path(spec["lengths_file"]))
            if len(lengths) != count:
                raise ConfigError(f"lengths file holds {len(lengths)} entries, spec says {count}")
        else:
            lengths = [spec["length"]] * count
        try:
            shape = SyntheticSpec(kind=spec["kind"], lengths=tuple(lengths))
        except ValueError as exc:
            raise ConfigError(f"synthetic spec: {exc}") from exc
        resolved = {key: spec[key] for key in ("kind", "generator", "count", "burn_in")}
        return shape, {**resolved, "master_seed": self.master_seed}

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8-sig"))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except (RecursionError, ValueError) as exc:  # also nesting too deep, or an int past 4,300 digits
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        data.pop("jobs", None)  # a retired setting, still accepted and ignored
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
        for key in _LIST_FIELDS:
            if isinstance(data.get(key), list):
                data[key] = tuple(data[key])
        return cls(**data).validate()

    def with_overrides(self, **overrides) -> "RunConfig":
        """Apply non-None flag values on top of this configuration."""
        updates = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **updates).validate()

    def echo_dict(self) -> dict:
        """Config as echoed into report.json.

        Excludes the output location, so reports from identical experiments
        are byte-identical wherever they are written.
        """
        data = asdict(self)
        del data["output_dir"]
        return data
