"""The golden-run script's scenarios are valid configs, exactly those it
expects to exit 1 are config errors that write nothing, and they cover the
README examples (only the config errors are run here)."""

import importlib.util
import shlex
from pathlib import Path

import pytest

from tvglab.cli import ConfigError, _split_flags, main, parse_config

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("golden_run", ROOT / "scripts" / "golden_run.py")
golden_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_run)


def _without_output_dir(args):
    out, i = [], 0
    while i < len(args):
        if args[i] == "--output.dir":
            i += 2
            continue
        out.append(args[i])
        i += 1
    return out


@pytest.mark.parametrize("name", sorted(golden_run.SCENARIOS))
def test_scenario_parses(name, tmp_path):
    # a config error, found at parse time or when the scenario runs, exits 1
    # and writes nothing; every other scenario parses
    subcommand, *flags = golden_run.SCENARIOS[name]
    config_path, overrides, problems = _split_flags(flags)
    assert not problems
    if golden_run.EXPECTED_EXIT.get(name) == 1:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(golden_run.CONFIGS.get(name, ""))
        out = tmp_path / "out"
        argv = [a.replace("{cfg}", str(cfg)) for a in golden_run.SCENARIOS[name]]
        assert main(argv + ["--output.dir", str(out)]) == 1
        assert not out.exists() or not any(out.iterdir())
    else:
        text = golden_run.CONFIGS[name] if config_path is not None else ""
        parse_config(text, subcommand=subcommand, overrides=overrides)


def test_every_readme_example_is_a_scenario():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    examples = [shlex.split(line)[1:] for line in readme.splitlines()
                if line.startswith("tvglab ") and "--config" not in line]
    assert len(examples) >= 8
    scenarios = [args for name, args in golden_run.SCENARIOS.items() if name.startswith("readme_")]
    for example in examples:
        assert _without_output_dir(example) in scenarios, example


def test_readme_config_examples_are_scenarios():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    ini = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    assert golden_run.CONFIGS["readme_config_file"] == ini
    shown = [line.removeprefix("config error: ")
             for line in readme.split("```text\n", 1)[1].split("```", 1)[0].splitlines()
             if line.startswith("config error: ")]
    with pytest.raises(ConfigError) as exc:
        parse_config(golden_run.CONFIGS["readme_bad_config"], subcommand="verify-deadline")
    assert list(exc.value.violations) == shown
