"""Flat key-value configuration files and the bundled example scenarios.

One ``key = value`` pair per line, ``#`` starts a comment (full-line or
inline), keys may appear once.  The same format drives single scenarios and
sweep files; see the README for the documented schemas.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import resources

from .core import ModelParams, SemiquantumError, UsageError
from .dynamics import (FLOAT_KEYS, METHODS, QUANTUM_INITS, REPRESENTATIONS,
                       ScenarioConfig)

__all__ = [
    "ConfigError",
    "SweepSpec",
    "SCENARIO_KEYS",
    "parse_scenario_text",
    "parse_sweep_text",
    "load_scenario",
    "load_sweep",
    "resolve_config_path",
    "bundled_scenario_names",
    "read_config_text",
]

_FLOAT_KEYS = ("m", "e", "hbar", *FLOAT_KEYS)
_INT_KEYS = ("sample_every",)
_ENUM_KEYS = {
    "representation": REPRESENTATIONS,
    "method": METHODS,
    "quantum_init": QUANTUM_INITS,
}
SCENARIO_KEYS = frozenset(_FLOAT_KEYS) | frozenset(_INT_KEYS) | frozenset(_ENUM_KEYS)
_REQUIRED_KEYS = ("m", "e", "hbar", "A0", "Adot0", "t_end")

_SWEEP_KEYS = ("base", "axis", "values")  # all required
SWEEP_AXES = ("e", "A0", "Adot0")


class ConfigError(UsageError):
    """A config file could not be parsed; carries the offending key and line."""

    def __init__(self, message: str, *, source: str = "<config>",
                 line: int | None = None, key: str | None = None):
        self.source = source
        self.line = line
        self.key = key
        where = source if line is None else f"{source}:{line}"
        what = message if key is None else f"key {key!r}: {message}"
        super().__init__(f"{where}: {what}")


@dataclass(frozen=True)
class SweepSpec:
    """A sweep: one base scenario plus one parameter axis with its values."""

    base: str
    axis: str
    values: tuple[float, ...]


def _read_pairs(text: str, source: str, keys, required) -> dict:
    """{key: (value, lineno)} of a one-pair-per-line text.  Raises ConfigError
    on a malformed line, a key not in `keys`, a duplicate, or a missing key
    of `required`."""
    seen: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", source=source, line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("empty key", source=source, line=lineno)
        if not value:
            raise ConfigError("empty value", source=source, line=lineno, key=key)
        if key not in keys:
            raise ConfigError("unknown key", source=source, line=lineno, key=key)
        if key in seen:
            raise ConfigError(f"duplicate (first seen on line {seen[key][1]})",
                              source=source, line=lineno, key=key)
        seen[key] = (value, lineno)
    for key in required:
        if key not in seen:
            raise ConfigError("missing required key", source=source, key=key)
    return seen


def parse_scenario_text(text: str, source: str = "<config>") -> ScenarioConfig:
    """Parse a scenario config; raises ConfigError naming key and line."""
    seen = _read_pairs(text, source, SCENARIO_KEYS, _REQUIRED_KEYS)
    kwargs: dict = {}
    for key, (value, lineno) in seen.items():
        if key in _FLOAT_KEYS:
            try:
                kwargs[key] = float(value)
            except ValueError:
                raise ConfigError(f"not a number: {value!r}",
                                  source=source, line=lineno, key=key) from None
        elif key in _INT_KEYS:
            try:
                kwargs[key] = int(value)
            except ValueError:
                raise ConfigError(f"not an integer: {value!r}",
                                  source=source, line=lineno, key=key) from None
        else:
            if value not in _ENUM_KEYS[key]:
                raise ConfigError(
                    f"must be one of {', '.join(_ENUM_KEYS[key])}; got {value!r}",
                    source=source, line=lineno, key=key)
            kwargs[key] = value

    try:
        params = ModelParams(m=kwargs.pop("m"), e=kwargs.pop("e"),
                             hbar=kwargs.pop("hbar"))
        return ScenarioConfig(params=params, **kwargs)
    except SemiquantumError as exc:
        raise ConfigError(str(exc), source=source) from exc


def parse_sweep_text(text: str, source: str = "<sweep>") -> SweepSpec:
    """Parse a sweep file: keys base, axis, values."""
    seen = _read_pairs(text, source, _SWEEP_KEYS, _SWEEP_KEYS)
    axis, axis_line = seen["axis"]
    if axis not in SWEEP_AXES:
        raise ConfigError(f"must be one of {', '.join(SWEEP_AXES)}; got {axis!r}",
                          source=source, line=axis_line, key="axis")
    raw_values, values_line = seen["values"]
    values = []
    for tok in raw_values.replace(",", " ").split():
        try:
            values.append(float(tok))
        except ValueError:
            raise ConfigError(f"not a number: {tok!r}", source=source,
                              line=values_line, key="values") from None
    if not values:
        raise ConfigError("no values given", source=source,
                          line=values_line, key="values")
    return SweepSpec(base=seen["base"][0], axis=axis, values=tuple(values))


# ---------------------------------------------------------------------------
# bundled scenarios and file resolution
# ---------------------------------------------------------------------------

def bundled_scenario_names() -> tuple[str, ...]:
    root = resources.files("semiosc").joinpath("scenarios")
    names = sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".cfg"))
    return tuple(names)


def resolve_config_path(ref: str, relative_to: str | None = None) -> tuple[str, str]:
    """Resolve a config reference to ("file"|"bundled", location).

    An existing filesystem path (absolute, or relative to `relative_to`) wins;
    otherwise the name is looked up among the bundled scenarios.
    """
    candidate = ref
    if relative_to is not None and not os.path.isabs(ref):
        candidate = os.path.join(relative_to, ref)
    if os.path.isfile(candidate):
        return "file", candidate
    if os.path.isfile(ref):
        return "file", ref
    name = ref[:-4] if ref.endswith(".cfg") else ref
    if name in bundled_scenario_names():
        return "bundled", name
    raise FileNotFoundError(
        f"no config file {ref!r} and no bundled scenario of that name "
        f"(bundled: {', '.join(bundled_scenario_names())})")


def read_config_text(ref: str, relative_to: str | None = None) -> tuple[str, str]:
    """Text of a scenario reference plus a human-readable source label."""
    kind, loc = resolve_config_path(ref, relative_to)
    if kind == "file":
        with open(loc, "r", encoding="utf-8") as fh:
            return fh.read(), loc
    text = resources.files("semiosc").joinpath("scenarios", loc + ".cfg").read_text(
        encoding="utf-8")
    return text, f"bundled:{loc}"


def load_scenario(ref: str, relative_to: str | None = None) -> ScenarioConfig:
    text, source = read_config_text(ref, relative_to)
    return parse_scenario_text(text, source=source)


def load_sweep(path: str) -> tuple[SweepSpec, ScenarioConfig]:
    """Parse a sweep file and its base scenario (resolved next to the file)."""
    with open(path, "r", encoding="utf-8") as fh:
        spec = parse_sweep_text(fh.read(), source=path)
    base = load_scenario(spec.base, relative_to=os.path.dirname(os.path.abspath(path)))
    return spec, base
