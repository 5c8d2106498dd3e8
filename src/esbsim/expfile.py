"""Flat key-value experiment files with section headers.

The format is line-oriented and diff-friendly so experiment provenance can
live in version control: `#` comments, `[section]` headers (key=value pairs
may follow on the header line or on their own lines), one `[config <name>]`
section per configuration, optional `[channel]`, `[ble]`, `[targets]`, and
`[pipeline]` sections.  Pipeline files produced by calibration use the same
syntax with `[stages]`, `[jitter]`, `[dedup]`, and `[modifiers]` sections.

Each file key maps to one dataclass field through a single schema table
(`_SECTIONS` for experiment files, `_PIPELINE_SECTIONS` for pipeline files);
`_read_sections` applies it, and `apply_override` resolves `--set` paths
through the same table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isfinite
from typing import Callable, Mapping

from .analytics import CalibrationTargets
from .config import (
    TX_POWER_MAX_DBM,
    TX_POWER_MIN_DBM,
    BitrateMode,
    BleConfig,
    ChannelModel,
    CrcMode,
    EsbConfig,
    PayloadMode,
    ProtocolMode,
    TxMode,
)
from .link import MODIFIER_STAGE, PipelineModel, STAGES
from .sweep import SweepPlan


class ParseError(ValueError):
    """A malformed file or `--set` override.  `line_no` is the file's line at
    fault, or None for a fault of the whole file or of an override, whose
    reason then names the override."""

    def __init__(self, line_no: int | None, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(reason if line_no is None else f"line {line_no}: {reason}")


class UnknownKeyError(ParseError):
    def __init__(self, line_no: int | None, name: str, context: str = ""):
        self.name = name
        super().__init__(line_no, f"{context}unknown key {name!r}")


@dataclass(frozen=True)
class Experiment:
    """A parsed experiment file: the sweep plan plus its environment."""

    plan: SweepPlan
    channel: ChannelModel = ChannelModel()
    ble: BleConfig | None = None
    targets: CalibrationTargets | None = None


def _parse_bool(value: str) -> bool:
    if value in ("true", "yes", "1"):
        return True
    if value in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def finite_float(value: str) -> float:
    """A float that is neither infinite nor NaN: the converter of every float
    key in experiment files, `--set` overrides and pipeline files."""
    number = float(value)
    if not isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def _parse_seed(value: str) -> int:
    seed = int(value)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {value}")
    return seed


# section -> file key -> (dataclass field, converter).  Fields belong to
# SweepPlan, EsbConfig, ChannelModel, BleConfig and CalibrationTargets.
_Schema = Mapping[str, Mapping[str, tuple[str, Callable[[str], object]]]]

_SECTIONS: _Schema = {
    "sweep": {
        "seed": ("seed", _parse_seed),
        "rounds": ("rounds", int),
        "attempts": ("attempts_per_round", int),
        "shuffle": ("shuffle", _parse_bool),
    },
    "config": {
        "crc": ("crc_mode", CrcMode),
        "protocol": ("protocol_mode", ProtocolMode),
        "bitrate": ("bitrate_mode", BitrateMode),
        "txmode": ("tx_mode", TxMode),
        "power": ("tx_power_dbm", int),
        "payload": ("payload_mode", PayloadMode),
        "payload_len": ("payload_len_bytes", int),
        "retransmits": ("retransmit_count", int),
        "retransmit_delay_us": ("retransmit_delay_us", finite_float),
    },
    "channel": {"p_loss": ("p_loss", finite_float), "p_corrupt": ("p_corrupt", finite_float)},
    "ble": {
        "connection_interval_us": ("connection_interval_us", finite_float),
        "transfer_us": ("transfer_time_us", finite_float),
    },
    "targets": {key: (f"{key}_us", finite_float) for key in ("d0d7", "d2d5", "d3d4")},
}


def _tokenize(text: str):
    """Yield (line_no, section_parts | None, pairs) per meaningful line."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        section = None
        if line.startswith("["):
            close = line.find("]")
            if close < 0:
                raise ParseError(line_no, "unterminated section header")
            section = line[1:close].split()
            if not section:
                raise ParseError(line_no, "empty section header")
            line = line[close + 1 :].strip()
        pairs = []
        for token in line.split():
            if "=" not in token:
                raise ParseError(line_no, f"expected key=value, got {token!r}")
            key, _, value = token.partition("=")
            if not key or not value:
                raise ParseError(line_no, f"malformed pair {token!r}")
            pairs.append((key, value))
        yield line_no, section, pairs


def _convert(line_no: int, key: str, value: str, conv: Callable[[str], object]):
    try:
        return conv(value)
    except ValueError as exc:
        raise ParseError(line_no, f"bad value for {key!r}: {exc}") from exc


def _read_sections(
    text: str, schema: _Schema, named: frozenset[str] = frozenset()
) -> list[tuple[str, str | None, dict[str, object]]]:
    """The file's sections in order, as (section, name, {field: value}).

    Sections listed in `named` take one name (`[config <name>]`), the others
    none.  Unknown sections and keys, keys before any header, duplicate keys
    and duplicate sections are errors: files are provenance, so silent
    last-wins merging would hide mistakes.
    """
    sections: list[tuple[str, str | None, dict[str, object]]] = []
    seen: set[tuple[str, ...]] = set()
    keys: Mapping = {}
    fields: dict[str, object] | None = None
    for line_no, header, pairs in _tokenize(text):
        if header is not None:
            section, args = header[0], header[1:]
            if section not in schema:
                raise ParseError(line_no, f"unknown section {section!r}")
            if section in named and len(args) != 1:
                raise ParseError(line_no, f"{section} sections need a name: [{section} <name>]")
            if section not in named and args:
                raise ParseError(line_no, f"section [{section}] takes no arguments")
            if tuple(header) in seen:
                what = f"{section} section {args[0]!r}" if args else f"section [{section}]"
                raise ParseError(line_no, f"duplicate {what}")
            seen.add(tuple(header))
            keys, fields = schema[section], {}
            sections.append((section, args[0] if args else None, fields))
        for key, value in pairs:
            if fields is None:
                raise ParseError(line_no, f"key {key!r} before any section header")
            try:
                field, conv = keys[key]
            except KeyError:
                raise UnknownKeyError(line_no, key) from None
            if field in fields:
                raise ParseError(line_no, f"duplicate key {key!r}")
            fields[field] = _convert(line_no, key, value, conv)
    return sections


def parse_experiment_file(text: str) -> Experiment:
    """Parse an experiment file into a fully resolved plan and environment.

    Raises ParseError with the offending line, or UnknownKeyError for a key
    the section's schema does not define.  Keys a file leaves out take the
    dataclass defaults.
    """
    sections = _read_sections(text, _SECTIONS, named=frozenset({"config"}))
    if not sections:
        raise ParseError(None, "empty experiment file")
    configs = tuple((name, fields) for section, name, fields in sections if section == "config")
    if not configs:
        raise ParseError(None, "no [config <name>] sections")
    found = {section: fields for section, _, fields in sections if section != "config"}
    targets_kv = found.get("targets")
    if targets_kv:
        missing = [key for key, (field, _) in _SECTIONS["targets"].items() if field not in targets_kv]
        if missing:
            raise ParseError(None, f"[targets] missing {sorted(missing)}")
    try:
        plan = SweepPlan(
            configs=tuple((name, EsbConfig(**fields)) for name, fields in configs),
            **found.get("sweep", {}),
        )
        channel = ChannelModel(**found.get("channel", {}))
        ble = BleConfig(**found["ble"]) if found.get("ble") else None
        targets = CalibrationTargets(**targets_kv) if targets_kv else None
    except ValueError as exc:
        raise ParseError(None, str(exc)) from exc
    return Experiment(plan=plan, channel=channel, ble=ble, targets=targets)


def apply_override(exp: Experiment, assignment: str) -> Experiment:
    """Apply one `section.key=value` override to a parsed experiment.

    Paths: `sweep.<key>`, `channel.<key>`, `ble.<key>`, `targets.<key>`, and
    `config.<name>.<key>` with the same keys and value syntax as the file.
    """
    override = f"--set {assignment!r}: "
    if "=" not in assignment:
        raise ParseError(None, f"{override}needs key=value")
    path, _, value = assignment.partition("=")
    section, _, key = path.partition(".")
    name = None
    if section == "config":
        name, _, key = key.rpartition(".")
    if key not in _SECTIONS.get(section, {}) or name == "":
        raise UnknownKeyError(None, path, override)
    field, conv = _SECTIONS[section][key]
    try:
        change = {field: conv(value)}
        if section == "config":
            if name not in dict(exp.plan.configs):
                raise ValueError(f"no config named {name!r} to override")
            configs = tuple((n, replace(c, **change) if n == name else c) for n, c in exp.plan.configs)
            return replace(exp, plan=replace(exp.plan, configs=configs))
        if section == "sweep":
            return replace(exp, plan=replace(exp.plan, **change))
        if section == "targets" and exp.targets is None:
            raise ValueError("cannot override targets: none defined")
        base = getattr(exp, section) or BleConfig()  # only [ble] may be absent here
        return replace(exp, **{section: replace(base, **change)})
    except ValueError as exc:
        raise ParseError(None, f"{override}{exc}") from exc


# --- pipeline files -------------------------------------------------------------


def _parse_sigmas(value: str) -> tuple[float, ...]:
    """One jitter SD per stage, or a single SD shared by every stage."""
    sigmas = tuple(finite_float(part) for part in value.split(","))
    return sigmas * len(STAGES) if len(sigmas) == 1 else sigmas


def _modifier_keys() -> dict[str, tuple[str, Callable[[str], object]]]:
    """`<parameter>.<value>` for every parameter that has a modifier stage
    and every value a config takes for it, spelled as experiment files
    spell it; a modifier on any other value would never apply."""
    keys = {}
    for param in MODIFIER_STAGE:
        kind = _SECTIONS["config"][param][1]  # the enum, or int for power
        values = range(TX_POWER_MIN_DBM, TX_POWER_MAX_DBM + 1) if kind is int else [member.value for member in kind]
        for value in values:
            keys[f"{param}.{value}"] = (f"{param}.{value}", finite_float)
    return keys


# Fields belong to PipelineModel, except those of [stages], which name the
# stages whose base delays are collected in STAGES order into `base_us`, and
# [modifiers], whose keys are collected into `modifiers_us`.
_PIPELINE_SECTIONS: _Schema = {
    "stages": {f"{stage}_us": (stage, finite_float) for stage in STAGES},
    "jitter": {"sigma_us": ("jitter_sigma_us", _parse_sigmas)},
    "dedup": {"escape_prob": ("dedup_escape_prob", finite_float)},
    "modifiers": _modifier_keys(),
}


def parse_pipeline_file(text: str) -> PipelineModel:
    """Parse a calibrated pipeline written by `render_pipeline_file`.

    Keys a file leaves out take the `PipelineModel` defaults: without
    `sigma_us`, each stage's jitter SD is DEFAULT_STAGE_JITTER_SIGMA_US
    (25/sqrt(7) us).
    """
    fields: dict[str, object] = {}
    bases: dict[str, object] = {}
    for section, _, found in _read_sections(text, _PIPELINE_SECTIONS):
        if section == "stages":
            bases = found
        elif section == "modifiers":
            fields["modifiers_us"] = {tuple(key.split(".", 1)): add_us for key, add_us in found.items()}
        else:
            fields.update(found)
    missing = [stage for stage in STAGES if stage not in bases]
    if missing:
        raise ParseError(None, f"[stages] missing {sorted(missing)}")
    try:
        return PipelineModel(base_us=tuple(bases[stage] for stage in STAGES), **fields)
    except ValueError as exc:
        raise ParseError(None, str(exc)) from exc


def render_pipeline_file(pipeline: PipelineModel, header: str = "") -> str:
    # repr keeps full float precision, so parse(render(p)) == p
    lines = []
    if header:
        lines.extend("# " + h for h in header.splitlines())
    lines.append("[stages]")
    for stage, base in zip(STAGES, pipeline.base_us):
        lines.append(f"{stage}_us={base!r}")
    lines.append("[jitter]")
    sigmas = pipeline.jitter_sigma_us
    if len(set(sigmas)) == 1:
        lines.append(f"sigma_us={sigmas[0]!r}")
    else:
        lines.append("sigma_us=" + ",".join(repr(s) for s in sigmas))
    lines.append("[dedup]")
    lines.append(f"escape_prob={pipeline.dedup_escape_prob!r}")
    if pipeline.modifiers_us:
        lines.append("[modifiers]")
        for (param, value), add_us in sorted(pipeline.modifiers_us.items()):
            lines.append(f"{param}.{value}={add_us!r}")
    return "\n".join(lines) + "\n"
