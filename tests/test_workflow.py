"""CI's smoke step against the program it runs.

The step runs the CLI as a user does, each call a fresh process: every
subcommand, every config in tests/data, the installed script beside the
module, and the exit status of each refused input. What the outputs say is
tier-1's to check, so the step holds no inline Python program. The workflow
is read as text: its YAML parser is not a test dependency.
"""

import re
from pathlib import Path

from regretctl import cli

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
DATA = ROOT / "tests" / "data"


def _step(name):
    """The lines of the step `name`: from its `- name:` line to the next
    line indented no deeper than its dash."""
    lines = WORKFLOW.splitlines()
    [start] = [i for i, line in enumerate(lines) if line.strip() == f"- name: {name}"]
    indent = len(lines[start]) - len(lines[start].lstrip())
    end = start + 1
    while end < len(lines) and (not lines[end].strip() or len(lines[end]) - len(lines[end].lstrip()) > indent):
        end += 1
    return lines[start:end]


SMOKE = _step("CLI smoke run")
# one CLI call per line: `python -m regretctl.cli`, the `regretctl` script, or
# `refused STATUS`, which expects that exit status
CALL = re.compile(r"(?:python -m regretctl\.cli|regretctl|refused (?P<status>\d+)) (?P<command>\w+)(?P<args>.*)")
CALLS = [
    (int(m["status"] or 0), m["command"], m["args"])
    for m in (CALL.fullmatch(line.strip()) for line in SMOKE)
    if m
]


def _configs(args):
    return re.findall(r'"\$data/([\w.]+\.json)"', args)


def test_smoke_step_runs_every_subcommand():
    assert {command for _, command, _ in CALLS} == set(cli.main.commands)


def test_smoke_step_runs_every_data_config():
    assert {name for _, _, args in CALLS for name in _configs(args)} == {p.name for p in DATA.glob("*.json")}


def test_each_bad_config_run_expects_status_1():
    """And every other config has a run that must exit 0."""
    runs = {}
    for status, _, args in CALLS:
        for name in _configs(args):
            runs.setdefault(name, set()).add(status)
    assert {name: statuses for name, statuses in runs.items() if name.startswith("bad_")} == {
        p.name: {1} for p in DATA.glob("bad_*.json")
    }
    assert all(0 in statuses for name, statuses in runs.items() if not name.startswith("bad_"))


def test_smoke_step_holds_no_inline_python():
    script = "\n".join(SMOKE)
    assert "<<" not in script
    assert not re.search(r"\bpython3? +(-c\b|-(\s|$))", script)
