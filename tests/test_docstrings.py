import importlib
import re
from pathlib import Path

import avil

# a double-backticked private constant, bare (its own module's) or module-qualified
CONSTANT = re.compile(r"``(?:(\w+)\.)?(_[A-Z][A-Z0-9_]*)\b")


def module_name(stem):
    return "avil" if stem == "__init__" else f"avil.{stem}"


def named_constants():
    """(file:line, module, name) of every double-backticked constant in avil's source."""
    for path in sorted(Path(avil.__file__).parent.glob("*.py")):
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            for qualifier, name in CONSTANT.findall(line):
                yield f"{path.name}:{lineno}", module_name(qualifier or path.stem), name


def test_docstrings_name_only_constants_that_exist():
    named = list(named_constants())
    # both forms are found: a bare name and a module-qualified one
    assert ("avil.autodiff", "_BLOCK_BYTES") in {(module, name) for _, module, name in named}
    assert any(where.startswith("harness.py") and module == "avil.autodiff" for where, module, _ in named)
    missing = [
        f"{where}: {module}.{name}"
        for where, module, name in named
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
