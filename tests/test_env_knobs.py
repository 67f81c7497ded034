"""Only real modelling and tooling choices read the environment.

Every ``os.environ`` / ``os.getenv`` read under ``src/repro`` is found by
walking the syntax tree, and the variable it names is resolved (a string
literal, or a module-level string constant).  The set of ``REPRO_*`` names
read must be exactly the allowed one: an implementation knob that A/Bs two
versions of the same semantics does not come back unnoticed.
"""

import ast
from pathlib import Path

import repro

#: The environment variables the library may read.
ALLOWED = {"REPRO_WORKLOAD_CACHE", "REPRO_VERIFY_TOTALS"}

SRC = Path(repro.__file__).resolve().parent


def _is_environ(node):
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "environ"
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


def _env_keys(tree):
    """The key expression of every environment read in one module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args:
            func = node.func
            if isinstance(func, ast.Attribute) and (
                (func.attr in ("get", "pop", "setdefault") and _is_environ(func.value))
                or (
                    func.attr == "getenv"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "os"
                )
            ):
                yield node.args[0]
        elif isinstance(node, ast.Subscript) and _is_environ(node.value):
            yield node.slice
        elif isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.In, ast.NotIn)) for op in node.ops
        ):
            if any(_is_environ(c) for c in node.comparators):
                yield node.left


def _string_constants(tree):
    """Module-level ``NAME = "literal"`` assignments."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(
            node.value, ast.Constant
        ) and isinstance(node.value.value, str):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    out[target.id] = node.value.value
    return out


def environment_reads():
    """``{variable name: [file, ...]}`` over every module of the package."""
    reads = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        constants = _string_constants(tree)
        for key in _env_keys(tree):
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                name = key.value
            elif isinstance(key, ast.Name) and key.id in constants:
                name = constants[key.id]
            else:
                name = f"<unresolved {ast.unparse(key)}>"
            reads.setdefault(name, []).append(str(path.relative_to(SRC)))
    return reads


def test_only_allowed_repro_variables_are_read():
    reads = environment_reads()
    unresolved = {k: v for k, v in reads.items() if k.startswith("<unresolved")}
    assert not unresolved, f"environment reads with a computed name: {unresolved}"
    repro_names = {name for name in reads if name.startswith("REPRO_")}
    assert repro_names == ALLOWED, reads
