"""The README against the program it describes.

The README keeps what the program does and guarantees, and names the test or
command behind each figure. These checks keep it from drifting: its config
example parses and `gamma` prints on it the line the README quotes; its
usage block lists exactly the options each subcommand declares; and every
file, dotted name and test it cites exists.
"""

import ast
import importlib
import re
from pathlib import Path

import click
from click.testing import CliRunner

from regretctl import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
# a fenced block: its opener's language and its contents
FENCED = re.compile(r"^```(\w*)\n(.*?)^```$", flags=re.S | re.M)
# the README's prose: everything outside its fenced blocks
PROSE = FENCED.sub("", README)
# the contents of its inline code spans, which may wrap across lines
SPANS = re.findall(r"`([^`]+)`", PROSE)

PACKAGE_MODULES = sorted(
    p.stem for p in (ROOT / "src" / "regretctl").glob("*.py") if p.stem != "__init__"
)
TEST_MODULES = ["helpers", "dense_oracle", "rollout_oracle"]


def _fenced(lang):
    """The contents of the README's fenced blocks opened with ```lang."""
    return [text for opener, text in FENCED.findall(README) if opener == lang]


def test_config_example_parses_and_gamma_prints_the_quoted_line(tmp_path):
    [block] = _fenced("json")
    cli.parse_config(block)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(block)
    result = CliRunner().invoke(cli.main, ["gamma", "--config", str(cfg)])
    assert result.exit_code == 0, result.output
    line = result.stdout.splitlines()[-1]
    assert line.startswith("gamma_opt = ")
    assert f"`{line}`" in PROSE, line


def test_usage_block_lists_exactly_the_declared_options():
    """The usage block is the sh block whose lines start with `regretctl
    <subcommand>`; an indented line continues the subcommand above it."""
    [block] = [b for b in _fenced("sh") if b.startswith("regretctl ")]
    usage, command = {}, None
    for line in block.splitlines():
        if line.startswith("regretctl "):
            command = line.split()[1]
        usage.setdefault(command, []).extend(re.findall(r"--[a-z][a-z-]*", line))
    declared = {name: sorted(o for p in cmd.params for o in p.opts) for name, cmd in cli.main.commands.items()}
    assert {name: sorted(opts) for name, opts in usage.items()} == declared
    total = sum(map(len, declared.values()))
    assert f"({total} in all" in PROSE
    for cmd in cli.main.commands.values():
        for param in cmd.params:
            if isinstance(param.type, click.Choice):
                assert f"{param.opts[0]} {'|'.join(param.type.choices)}" in block


def test_cited_paths_exist():
    cited = set(re.findall(r"(?<![\w./-])((?:src|tests|perfbench|\.github)/[\w./-]*\w)", README))
    assert cited
    assert [p for p in sorted(cited) if not (ROOT / p).exists()] == []


def test_layout_lists_files_that_exist_and_every_package_module():
    [layout] = [b for b in _fenced("") if b.startswith("src/regretctl/")]
    listed, directory = set(), None
    for line in layout.splitlines():
        if not line.startswith(" "):
            directory = line.split()[0]
        else:
            name = line.split()[0]
            if name.endswith(".py"):
                listed.add(directory + name)
    assert [p for p in sorted(listed) if not (ROOT / p).exists()] == []
    assert {f"src/regretctl/{m}.py" for m in PACKAGE_MODULES} <= listed


def test_cited_names_resolve():
    """Every `module.name` of the package or of the tests' referee and helper
    modules that a code span cites is an attribute of that module."""
    modules = "|".join(PACKAGE_MODULES + TEST_MODULES)
    pattern = re.compile(rf"(?<![\w./])(?:regretctl\.)?({modules})((?:\.[A-Za-z_]\w*)+)")
    cited = {(m, attrs) for span in SPANS for m, attrs in pattern.findall(span)}
    assert ("cli", ".TAPE_BUDGET") in cited and ("controllers", "._bisect_gamma") in cited
    unresolved = []
    for module, attrs in sorted(cited):
        obj = importlib.import_module(module if module in TEST_MODULES else f"regretctl.{module}")
        try:
            for attr in attrs[1:].split("."):
                obj = getattr(obj, attr)
        except AttributeError:
            unresolved.append(module + attrs)
    assert unresolved == []


def _test_index():
    """{module path: {class or function name: {method names}}} of every test
    module, read with `ast`."""
    index = {}
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        names = {}
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                names[node.name] = {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
            elif isinstance(node, ast.FunctionDef):
                names[node.name] = set()
        index[f"tests/{path.name}"] = names
    return index


def test_cited_tests_exist():
    """A code span that is a test id, `[tests/<module>.py::]TestClass[::test]`
    or a bare `test_name`, names a test of the suite."""
    index = _test_index()
    ids = [s for s in SPANS if re.fullmatch(r"(tests/test_\w+\.py::)?Test\w+(::test_\w+)?|test_\w+", s)]
    assert ids
    missing = []
    for cited in ids:
        path, _, rest = cited.rpartition(".py::")
        modules = [index[path + ".py"]] if path else index.values()
        cls, _, method = rest.partition("::")
        if cls.startswith("test_"):
            found = any(cls in names or any(cls in methods for methods in names.values()) for names in modules)
        else:
            found = any(cls in names and (not method or method in names[cls]) for names in modules)
        if not found:
            missing.append(cited)
    assert missing == []
