"""The golden-run script's scenarios are valid configs, exactly those it
expects to exit 1 are config errors that write nothing, and they cover the
README examples (only the config errors are run here)."""

import importlib.util
import shlex
import subprocess
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


def test_compare_manifests_prints_the_diff_and_exits_1_when_they_differ(tmp_path, capsys):
    base, head = tmp_path / "base.sha256", tmp_path / "head.sha256"
    base.write_text("aa  run/exit.txt\nbb  run/stdout.txt\n")
    head.write_text("aa  run/exit.txt\nbb  run/stdout.txt\n")
    assert golden_run.compare_manifests(base, head) == 0
    assert capsys.readouterr().out == "identical\n"
    head.write_text("aa  run/exit.txt\ncc  run/stdout.txt\n")
    assert golden_run.compare_manifests(base, head) == 1
    out = capsys.readouterr().out
    assert "\n-bb  run/stdout.txt\n+cc  run/stdout.txt\n" in out
    assert "identical" not in out


def test_against_runs_each_side_by_its_own_script(tmp_path, monkeypatch, capsys):
    """--against extracts REF, runs REF's golden run and this checkout's into
    OUT/base and OUT/head, and exits with the manifest comparison."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import bench_pairs

    extracted = []
    monkeypatch.setattr(bench_pairs, "extract",
                        lambda ref, dest: extracted.append((ref, dest)) or "c0ffee")
    manifests, scripts = {"base": "aa  run/exit.txt\n"}, {}

    def fake_run(cmd, **kwargs):
        out = Path(cmd[-1])
        scripts[out.name] = Path(cmd[1])
        out.mkdir(parents=True)
        (out / "MANIFEST.sha256").write_text(manifests[out.name])
        return subprocess.CompletedProcess(cmd, 0, "", "")

    monkeypatch.setattr(golden_run.subprocess, "run", fake_run)
    for head, code in (("aa  run/exit.txt\n", 0), ("ab  run/exit.txt\n", 1)):
        manifests["head"] = head
        out = tmp_path / str(code)
        assert golden_run.main(["--against", "REF", str(out)]) == code
        (ref, base_dir), = extracted
        extracted.clear()
        assert ref == "REF" and not base_dir.exists()  # removed after the runs
        assert scripts == {"base": base_dir / "scripts" / "golden_run.py",
                           "head": ROOT / "scripts" / "golden_run.py"}
        printed = capsys.readouterr().out
        assert "base c0ffee: golden run exited 0" in printed
        assert ("identical" in printed) == (code == 0)


def test_golden_run_needs_an_empty_output_directory(tmp_path):
    (tmp_path / "left_over").write_text("")
    assert golden_run.main([str(tmp_path)]) == 1
    assert golden_run.main(["--against", "REF", str(tmp_path)]) == 1


def test_label_csv_diffs_tells_comment_changes_from_data_changes(tmp_path, capsys):
    files = {  # path -> (base text, head text)
        "run/artifacts/same.csv": ("# a\nt,x1\n1,2\n", "# a\nt,x1\n1,2\n"),
        "run/artifacts/comments.csv": ("# a\nt,x1\n1,2\n", "# b\n# c\nt,x1\n1,2\n"),
        "run/artifacts/data.csv": ("# a\nt,x1,x2,note\n1,2,-4,a\n2,5,0,b\n3,nan,1,c\n",
                                   "# a\nt,x1,x2,note\n1,3,-4.0,a\n2,4,0,d\n3,nan,1,c\n"),
        "run/artifacts/rows.csv": ("t,x1\n1,2\n", "t,x1\n1,2\n2,3\n"),
        "run/artifacts/header.csv": ("t,x1\n1,2\n", "t,x2\n1,2\n"),
        "run/artifacts/summary.txt": ("a\n", "b\n"),
    }
    for side, k in (("base", 0), ("head", 1)):
        for path, texts in files.items():
            (tmp_path / side / path).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / side / path).write_text(texts[k])
        (tmp_path / side / "run" / "artifacts" / f"only_{side}.csv").write_text(f"t,x1\n{k},0\n")
        golden_run.write_manifest(tmp_path / side)
    golden_run.label_csv_diffs(tmp_path / "base", tmp_path / "head")
    # x1 moves by 1/3 and 1/5, x2 only in its spelling, note from b to d;
    # another header or row count is a layout change
    assert capsys.readouterr().out.splitlines() == [
        "comments only  run/artifacts/comments.csv",
        "data  run/artifacts/data.csv",
        "    x1  max relative difference 0.33",
        "    x2  max relative difference 0",
        "    note  max relative difference inf",
        "data (layout changed)  run/artifacts/header.csv",
        "data (layout changed)  run/artifacts/rows.csv"]
