"""The package runs no generated code: no module calls the builtins `exec`,
`eval` or `compile`.  Attribute calls such as `re.compile` are allowed."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "doctrina"
GENERATORS = {"exec", "eval", "compile"}


def generated_code_calls(source: str) -> list[tuple[int, str]]:
    return [
        (node.lineno, node.func.id)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in GENERATORS
    ]


def test_no_module_calls_exec_eval_or_compile():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    calls = {p.name: generated_code_calls(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: found for name, found in calls.items() if found} == {}


def test_the_check_sees_builtin_calls_only():
    source = (
        "import re\n"
        "PATTERN = re.compile('x')\n"
        "def f(text):\n"
        "    code = compile(text, '<f>', 'exec')\n"
        "    exec(code)\n"
        "    return eval(text), PATTERN.match(text)\n"
    )
    assert generated_code_calls(source) == [(4, "compile"), (5, "exec"), (6, "eval")]
