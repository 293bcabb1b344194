"""Config parsing: the flat key-value schema for scenarios and sweeps."""

import re
from pathlib import Path

import pytest

from semiosc import ConfigError, bundled_scenario_names, load_scenario
from semiosc.config import SCENARIO_KEYS, parse_scenario_text, parse_sweep_text
from semiosc.dynamics import CHOICES, POSITIVE_KEYS

GOOD = """\
# a comment line
m = 1.0
e = 0.5   # inline comment
hbar = 1.0

A0 = 1.0
Adot0 = 0.0
t_end = 2.0
dt = 0.01
sample_every = 5
representation = moments
method = adaptive
rtol = 1e-9
atol = 1e-11
"""


def test_parse_good_config():
    cfg = parse_scenario_text(GOOD)
    assert cfg.params.e == 0.5
    assert cfg.representation == "moments"
    assert cfg.method == "adaptive"
    assert cfg.rtol == 1e-9
    assert cfg.sample_every == 5


def test_missing_required_key_names_it():
    text = GOOD.replace("m = 1.0\n", "")
    with pytest.raises(ConfigError, match="'m'"):
        parse_scenario_text(text, source="x.cfg")


def test_unknown_key_names_key_and_line():
    with pytest.raises(ConfigError, match=r"x\.cfg:2.*'mass'"):
        parse_scenario_text("m = 1.0\nmass = 2.0\n", source="x.cfg")


def test_malformed_line_names_line():
    with pytest.raises(ConfigError, match=r"x\.cfg:1.*key = value"):
        parse_scenario_text("bananas\n", source="x.cfg")


def test_bad_number_names_key_and_line():
    text = GOOD.replace("e = 0.5   # inline comment", "e = zap")
    with pytest.raises(ConfigError, match=r":3.*'e'.*zap"):
        parse_scenario_text(text, source="x.cfg")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_scenario_text(GOOD + "m = 2.0\n")
    with pytest.raises(ConfigError, match=r"s\.sweep:4: key 'axis': duplicate "
                                          r"\(first seen on line 2\)"):
        parse_sweep_text("base = free\naxis = e\nvalues = 0.1\naxis = A0\n",
                         source="s.sweep")


def test_bad_enum_value():
    text = GOOD.replace("representation = moments", "representation = wigner")
    with pytest.raises(ConfigError, match="wigner"):
        parse_scenario_text(text)


def test_semantic_error_surfaces_as_config_error():
    text = GOOD.replace("t_end = 2.0", "t_end = -2.0")
    with pytest.raises(ConfigError, match="t_end"):
        parse_scenario_text(text)


def test_explicit_init_requires_width():
    text = GOOD + "quantum_init = explicit\n"
    with pytest.raises(ConfigError, match="rho0"):
        parse_scenario_text(text)
    ok = parse_scenario_text(text + "rho0 = 1.2\nrhodot0 = 0.0\n")
    assert ok.rho0 == 1.2


def test_bundled_scenarios_all_parse():
    names = bundled_scenario_names()
    assert set(names) == {"adiabatic", "free", "strong", "vacuum-kick"}
    for name in names:
        cfg = load_scenario(name)
        assert cfg.t_end > 0


def test_sweep_parsing():
    spec = parse_sweep_text("base = adiabatic\naxis = e\nvalues = 0.2, 0.1, 0.05\n")
    assert spec.base == "adiabatic"
    assert spec.axis == "e"
    assert spec.values == (0.2, 0.1, 0.05)


def test_sweep_axis_validation():
    with pytest.raises(ConfigError, match="axis"):
        parse_sweep_text("base = x\naxis = hbar\nvalues = 1 2 3\n")


def test_sweep_missing_key():
    with pytest.raises(ConfigError, match="'values'"):
        parse_sweep_text("base = x\naxis = e\n")


def test_sweep_bad_value():
    with pytest.raises(ConfigError, match="'values'"):
        parse_sweep_text("base = x\naxis = e\nvalues = 0.1, oops\n")


def test_readme_key_table_lists_the_scenario_keys():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split(
        "### Scenario config format", 1)[1].split("\n#", 1)[0]
    keys, choices = set(), {}
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        cells = re.split(r"(?<!\\)\|", line)  # a cell's own '|' is escaped
        names = re.findall(r"`([^`]+)`", cells[1])
        keys.update(names)
        if names[0] in CHOICES:
            choices[names[0]] = tuple(re.findall(r"`([^`]+)`", cells[2]))
    assert keys == SCENARIO_KEYS
    assert choices == CHOICES


def test_readme_names_the_keys_that_must_be_positive():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = " ".join(readme.read_text(encoding="utf-8").split())
    clause = re.search(r"A config error names the offending key: every float "
                       r"key must be finite; (.*?) must be positive", text)
    assert tuple(re.findall(r"`([^`]+)`", clause[1])) == POSITIVE_KEYS
