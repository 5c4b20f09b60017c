"""README's library example and its JSON config run as written, and its
command-line synopsis names the parser's options."""

import argparse
import json
import re
from pathlib import Path

from prestress_tube.cli import _parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs(tmp_path, monkeypatch, capsys):
    # the one fenced Python block, executed in an empty directory
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "__readme__"})
    assert capsys.readouterr().out


def test_readme_json_config_runs(tmp_path, capsys):
    # the one fenced JSON block, a config whose every field its workflow reads
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    path = tmp_path / "run.json"
    path.write_text(blocks[0])
    workflow = json.loads(blocks[0])["workflow"]
    assert main([workflow, "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 0
    assert json.loads(capsys.readouterr().out)["converged"] is True


def test_readme_synopsis_names_every_option():
    # the fenced block that starts "prestress-tube <workflow>" lists exactly the options
    # of the workflows' parsers, help aside: a flag that comes or goes changes both
    block = re.search(r"```\n(prestress-tube <workflow>.*?)```",
                      README.read_text(encoding="utf-8"), re.S).group(1)
    sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {s for p in sub.choices.values() for a in p._actions for s in a.option_strings}
    assert set(re.findall(r"(?<![\w-])--?[A-Za-z][\w-]*", block)) == options - {"-h", "--help"}
