"""Every library parameter that has a default is set by some call.

A default that no call in src/, tests/ or bench/ overrides is a constant
posing as an option: the value is fixed in practice, yet each such parameter
doubles the configurations a reader must assume the code supports.  The scan
reads the source with `ast`.  A call `f(...)` or `x.f(...)` matches every
`def f` (and a call of a class name its `__init__`), and sets a parameter when
it passes that parameter by keyword or by position.  Arguments unpacked with
`*` or `**` set nothing here, since the source does not show which they fill.
Dataclass fields are not parameters here: a result record such as
`orders.AxiomReport` starts from defaults that the code then assigns.
The attribute half of the same rule, that every field, attribute and method
of a library class is read somewhere, is `test_every_class_attribute_is_read_somewhere`.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "beurling"
CALLERS = ("src", "tests", "bench")


def defaulted_parameters(tree: ast.Module, module: str):
    """(label, called name, parameter, position in a call or None) of each
    parameter with a default, in functions, methods and nested functions."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls)
                continue
            args = child.args
            positional = args.posonlyargs + args.args
            static = any(getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
            bound = 1 if cls and not static else 0  # self or cls, which a call does not pass
            name = cls if child.name == "__init__" else child.name
            label = f"{module}.{cls + '.' if cls else ''}{child.name}"
            first = len(positional) - len(args.defaults)
            for k, arg in enumerate(positional[first:], first):
                found.append((label, name, arg.arg, k - bound))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    found.append((label, name, arg.arg, None))
            visit(child, None)

    visit(tree, None)
    return found


def calls_by_name():
    """For each called name: (how many leading positional arguments, keywords) per call."""
    trees = [ast.parse(path.read_text()) for d in CALLERS for path in sorted((ROOT / d).rglob("*.py"))]
    aliases = {
        alias.asname: alias.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.asname
    }
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            leading = next((k for k, a in enumerate(node.args) if isinstance(a, ast.Starred)), len(node.args))
            keywords = {k.arg for k in node.keywords if k.arg is not None}
            calls.setdefault(aliases.get(name, name), []).append((leading, keywords))
    return calls


def test_every_defaulted_parameter_is_set_by_some_call():
    params = []
    for path in sorted(LIBRARY.glob("*.py")):
        params += defaulted_parameters(ast.parse(path.read_text()), path.stem)
    assert params, "the scan found no parameters with defaults"
    calls = calls_by_name()
    unset = [
        f"{label}({param})"
        for label, name, param, position in params
        if not any(
            param in keywords or (position is not None and leading > position)
            for leading, keywords in calls.get(name, ())
        )
    ]
    assert not unset, "defaults that no call overrides: " + ", ".join(unset)


def called_name(node):
    func = getattr(node, "func", None)
    return getattr(func, "id", None) or getattr(func, "attr", None)


def test_only_systems_forms_the_log_top():
    """A cut at x holds log v <= log x + log_tolerance(x), and only `systems.log_top`
    and `systems.log_tops` form that sum: every other module takes the tops they
    return, and neither calls log_tolerance nor restates its LOG_TIE_TOL * max(1, log x)."""
    formers = []
    for path in sorted(LIBRARY.glob("*.py")):
        if path.name == "systems.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            calls = isinstance(node, ast.Call) and called_name(node) == "log_tolerance"
            restates = (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Mult)
                and {getattr(node.left, "id", None), getattr(node.right, "id", None)} & {"LOG_TIE_TOL"}
                and {called_name(node.left), called_name(node.right)} & {"max", "maximum"}
            )
            if calls or restates:
                formers.append(f"{path.name}:{node.lineno}")
    assert not formers, "log tolerance formed outside systems.py: " + ", ".join(formers)


def test_only_mellin_G_calls_mp_quad():
    """The continuation, both sides of the functional-equation check and `Kernel.tail`'s
    fallback share `mellin._de_quad`, a double-exponential rule in numpy that reads F
    once per level.  mpmath's `quad` is left only in `mellin_G`."""
    calls = []
    for path in sorted(LIBRARY.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "mellin_G"
            for node in ast.walk(fn)
        }
        calls += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and called_name(node) == "quad" and id(node) not in allowed
        ]
    assert not calls, "mp.quad called outside mellin_G: " + ", ".join(calls)


def class_attributes(tree: ast.Module, module: str):
    """(label, name) of each dataclass field, `self.x =` attribute, method and
    property of the classes in a module, dunders excepted."""
    found = []
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        names = set()
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names.add(node.target.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store):
                        if getattr(sub.value, "id", None) == "self":
                            names.add(sub.attr)
        found += [(f"{module}.{cls.name}.{n}", n) for n in sorted(names) if not (n.startswith("__") and n.endswith("__"))]
    return found


def read_names():
    """Every name read as `x.name`, or as getattr(x, "name", ...), in src/, tests/ and bench/."""
    names = set()
    for path in (p for d in CALLERS for p in (ROOT / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif called_name(node) == "getattr" and len(node.args) >= 2:
                name = node.args[1]
                if isinstance(name, ast.Constant) and isinstance(name.value, str):
                    names.add(name.value)
    return names


def test_every_class_attribute_is_read_somewhere():
    """A field, attribute or method that no code reads is state the reader must
    keep in mind for nothing: it restates an input or a sibling value, or it is
    an output that no test checks.  The scan matches by name, so a read of any
    `.x` keeps every attribute called x."""
    attributes = []
    for path in sorted(LIBRARY.glob("*.py")):
        attributes += class_attributes(ast.parse(path.read_text()), path.stem)
    assert attributes, "the scan found no class attributes"
    read = read_names()
    unread = [label for label, name in attributes if name not in read]
    assert not unread, "attributes that nothing reads: " + ", ".join(unread)
