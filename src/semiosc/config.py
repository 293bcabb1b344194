"""Flat key-value configuration files and the bundled example scenarios.

One ``key = value`` pair per line, ``#`` starts a comment (full-line or
inline), keys may appear once.  The same format drives single scenarios and
sweep files; see the README for the documented schemas.
"""

import os
from collections import namedtuple

from .core import ModelParams, SemiquantumError, UsageError
from .dynamics import CHOICES, FLOAT_KEYS, ScenarioConfig

__all__ = [
    "ConfigError",
    "SweepSpec",
    "SCENARIO_KEYS",
    "parse_scenario_text",
    "parse_sweep_text",
    "load_scenario",
    "load_sweep",
    "bundled_scenario_names",
    "read_config_text",
]

SCENARIO_KEYS = frozenset(("m", "e", "hbar", *FLOAT_KEYS, "sample_every",
                           *CHOICES))
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


class SweepSpec(namedtuple("SweepSpec", "base axis values")):
    """A sweep: one base scenario plus one parameter axis with its values
    (a tuple of floats)."""

    __slots__ = ()


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
        if key in CHOICES:
            if value not in CHOICES[key]:
                raise ConfigError(
                    f"must be one of {', '.join(CHOICES[key])}; got {value!r}",
                    source=source, line=lineno, key=key)
            kwargs[key] = value
            continue
        kind, what = ((int, "an integer") if key == "sample_every"
                      else (float, "a number"))
        try:
            kwargs[key] = kind(value)
        except ValueError:
            raise ConfigError(f"not {what}: {value!r}",
                              source=source, line=lineno, key=key) from None

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

def _bundled():
    """The bundled scenarios' directory.  importlib.resources is imported
    here, off a command's start-up (on Python 3.12 it imports inspect)."""
    from importlib import resources
    return resources.files("semiosc").joinpath("scenarios")


def bundled_scenario_names() -> tuple[str, ...]:
    root = _bundled()
    names = sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".cfg"))
    return tuple(names)


def read_config_text(ref: str, relative_to: str | None = None) -> tuple[str, str]:
    """Text of a scenario reference plus a human-readable source label.

    An existing file wins, relative to `relative_to` first, then the path as
    given; otherwise the name is looked up among the bundled scenarios.
    """
    candidates = [ref]
    if relative_to is not None and not os.path.isabs(ref):
        candidates.insert(0, os.path.join(relative_to, ref))
    for path in candidates:
        if os.path.isfile(path):
            with open(path, "r", encoding="utf-8") as fh:
                return fh.read(), path
    name = ref[:-4] if ref.endswith(".cfg") else ref
    bundled = bundled_scenario_names()
    if name not in bundled:
        raise FileNotFoundError(
            f"no config file {ref!r} and no bundled scenario of that name "
            f"(bundled: {', '.join(bundled)})")
    text = _bundled().joinpath(name + ".cfg").read_text(encoding="utf-8")
    return text, f"bundled:{name}"


def load_scenario(ref: str, relative_to: str | None = None) -> ScenarioConfig:
    text, source = read_config_text(ref, relative_to)
    return parse_scenario_text(text, source=source)


def load_sweep(path: str) -> tuple[SweepSpec, ScenarioConfig]:
    """Parse a sweep file and its base scenario (resolved next to the file)."""
    with open(path, "r", encoding="utf-8") as fh:
        spec = parse_sweep_text(fh.read(), source=path)
    base = load_scenario(spec.base, relative_to=os.path.dirname(os.path.abspath(path)))
    return spec, base
