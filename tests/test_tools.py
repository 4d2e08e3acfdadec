import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "src_lines.py"
PACKAGE = ROOT / "src" / "apcover"


def load_tool():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_lines_columns_add_up_to_each_file():
    tool = load_tool()
    files = tool.working_tree()
    assert "certify.py" in files and "stanley.py" in files
    for name, text in files.items():
        tally = tool.counts(text)
        assert sum(tally.values()) == len(text.splitlines()), name
        assert tally["code"] and tally["docstring"], name
    done = subprocess.run(
        [sys.executable, str(TOOL)], capture_output=True, text=True, check=True
    )
    total = done.stdout.splitlines()[-1].split()
    assert total[0] == "total"
    assert int(total[-1]) == sum(len(text.splitlines()) for text in files.values())
    assert sum(map(int, total[1:-1])) == int(total[-1])


def test_backticked_module_names_are_live():
    # each `module.name` in the package's sources and the README names
    # something that apcover.module still has
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    named = {
        (path.name, module, name)
        for path in [*sorted(PACKAGE.glob("*.py")), ROOT / "README.md"]
        for module, name in re.findall(r"`(\w+)\.(\w+)", path.read_text())
        if module in modules
    }
    assert {module for _, module, _ in named} >= {"oracle", "certify", "stanley", "cli"}
    dead = [
        (file, f"{module}.{name}")
        for file, module, name in sorted(named)
        if not hasattr(importlib.import_module(f"apcover.{module}"), name)
    ]
    assert dead == []
