import ast
from pathlib import Path

import difftf
from difftf import blocks

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


def test_every_block_records_itself_through_block_apply():
    for cls in blocks._BLOCK_KINDS.values():
        assert issubclass(cls, blocks.Block), cls
        own = vars(cls)
        assert {"forward", "op", "simulate"} <= set(own) and "apply" not in own, cls


def test_only_fileio_reads_and_writes_json_files():
    readers = set()
    for path in sorted(Path(difftf.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if any(isinstance(node, ast.Attribute) and node.attr in ("load", "dump")
               and isinstance(node.value, ast.Name) and node.value.id == "json"
               for node in ast.walk(tree)):
            readers.add(path.name)
    assert readers == {"fileio.py"}


# defaulted parameters that no call site gives a value: each should be a constant
PARAMETERS_NEVER_VARIED = set()
ROOT = Path(__file__).resolve().parents[1]


def defaulted_parameters(path):
    """(callee name, qualified name, parameter names after self, defaulted names)
    of each module-level function and class method in path that has a default;
    a class's __init__ is called by the class name. Nested functions are left
    out: their defaults capture variables (`loss_at(v, p=p)`), not options."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            functions = [(node.name, f) for f in node.body if isinstance(f, ast.FunctionDef)]
        elif isinstance(node, ast.FunctionDef):
            functions = [(None, node)]
        else:
            continue
        for cls, fn in functions:
            args = fn.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            defaulted = positional[len(positional) - len(args.defaults):] + [
                a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            if not defaulted:
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            if cls is not None and not static:
                positional = positional[1:]
            callee = cls if fn.name == "__init__" else fn.name
            qualname = ".".join(n for n in (path.stem, cls, fn.name) if n)
            found.append((callee, qualname, positional, defaulted))
    return found


def call_sites(path):
    """(callee name, positional count, keyword names) of every call in path, with
    None for the count or the keywords where *args or **kwargs hide them; `cls`
    inside a class body is read as the class's name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    class_of = {}
    for cls in ast.walk(tree):  # an inner class overwrites its outer class
        if isinstance(cls, ast.ClassDef):
            class_of.update((id(n), cls.name) for n in ast.walk(cls))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "cls":
            name = class_of.get(id(node))
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        keywords = [k.arg for k in node.keywords]
        yield (name, None if starred else len(node.args),
               None if None in keywords else set(keywords))


def test_every_defaulted_parameter_is_varied_by_some_caller():
    given = {}
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for name, n_positional, keywords in call_sites(path):
                given.setdefault(name, []).append((n_positional, keywords))
    never = set()
    for path in sorted((ROOT / "src" / "difftf").glob("*.py")):
        for callee, qualname, positional, defaulted in defaulted_parameters(path):
            for param in defaulted:
                index = positional.index(param) if param in positional else len(positional)
                if not any(n is None or k is None or index < n or param in k
                           for n, k in given.get(callee, [])):
                    never.add(f"{qualname}({param})")
    assert never == PARAMETERS_NEVER_VARIED
