import ast
from pathlib import Path

import difftf

# perfbench's binding test reads the tf_core kernel through the tape module,
# so tape.py imports filter_rows without using it
UNUSED_IMPORTS_KEPT = {("tape.py", "filter_rows")}


def test_every_exported_name_resolves_once():
    assert len(set(difftf.__all__)) == len(difftf.__all__)
    for name in difftf.__all__:
        assert getattr(difftf, name) is not None, name


def bound_names(node):
    """The names an import statement binds (none for `from __future__`)."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def test_no_module_imports_a_name_it_never_uses():
    unused = set()
    for path in sorted(Path(difftf.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:  # a re-export in __all__ counts as a use
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used.update(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused.update((path.name, name) for name in bound_names(node)
                              if name not in used)
    assert unused == UNUSED_IMPORTS_KEPT
