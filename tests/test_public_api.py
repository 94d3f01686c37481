"""The package's top-level names are the library surface the README documents,
every public name in the package has a caller outside the tests, and so
does every defaulted parameter of a public function."""

import ast
import re
from pathlib import Path

import covartest

PUBLIC = {
    "CombinedReport",
    "GroupedSample",
    "HypothesisSpec",
    "MomentEstimates",
    "TestReport",
    "combined_test",
    "custom_hypothesis",
    "pool_estimates",
    "predefined_hypothesis",
    "run_test",
    "statistic_covariance",
    "structure_hypothesis",
}


def test_all_is_the_documented_surface():
    assert len(covartest.__all__) == len(PUBLIC)
    assert set(covartest.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(covartest, name) is not None


# ------------------------------------------------------------------ callers

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "covartest"


def _public_definitions(tree: ast.Module):
    """(name, node, is_member) for every public top-level function or class
    and every public method or property of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield item.name, item, True


def _references(tree: ast.AST):
    """(name, line, is_attribute) for every name the code mentions: plain
    names, attribute names, imported names and string constants, which
    cover ``getattr`` and patching by name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno, False
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno, True


def _readme_code_names() -> set[str]:
    """Identifiers inside the README's code blocks and inline code spans."""
    text = (ROOT / "README.md").read_text()
    code = re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.S)
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(code)))


def test_every_public_name_has_a_caller():
    # a public name must be used by the package outside its own definition,
    # by the scripts, by the benchmark or by the README; a method or
    # property counts only where it is read as an attribute
    sources = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    outside = [
        *(ast.parse(p.read_text()) for p in sorted((ROOT / "scripts").glob("*.py"))),
        *(ast.parse(p.read_text()) for p in sorted((ROOT / "perfbench").glob("*.py"))),
    ]
    readme = _readme_code_names()
    used_outside = {(name, attr) for tree in outside for name, _, attr in _references(tree)}
    used_inside = [(path, *ref) for path, tree in sources.items() for ref in _references(tree)]
    unused = []
    for path, tree in sources.items():
        for name, node, is_member in _public_definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            used = (
                name in readme
                or (name, True) in used_outside
                or (not is_member and (name, False) in used_outside)
                or any(
                    ref == name and (attr or not is_member) and not (other == path and line in own)
                    for other, ref, line, attr in used_inside
                )
            )
            if not used:
                unused.append(f"{path.stem}.{name}")
    assert unused == []


def _defaulted_parameters(tree: ast.Module):
    """(function, parameter, position) for every defaulted parameter of a
    public function or method; position counts the arguments a call
    writes, so a method's ``self`` is skipped, and is None for
    keyword-only parameters."""
    for name, node, is_member in _public_definitions(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        positional = node.args.posonlyargs + node.args.args
        first = len(positional) - len(node.args.defaults)
        for index in range(first, len(positional)):
            yield name, positional[index].arg, index - is_member
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None


def _passed_arguments(tree: ast.AST):
    """(callee, keyword or position) for every argument a call passes to a
    plainly named or attribute-named function."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        yield from ((callee, index) for index in range(len(node.args)))
        yield from ((callee, kw.arg) for kw in node.keywords)


def test_every_defaulted_parameter_is_passed():
    # a default that no caller overrides is a setting nobody uses: every
    # defaulted parameter must be passed, by keyword or by position, in
    # the package, the scripts or the benchmark, or be named in the
    # README's code
    callers = [
        *sorted(PACKAGE.glob("*.py")),
        *sorted((ROOT / "scripts").glob("*.py")),
        *sorted((ROOT / "perfbench").glob("*.py")),
    ]
    passed = {arg for path in callers for arg in _passed_arguments(ast.parse(path.read_text()))}
    readme = _readme_code_names()
    unused = [
        f"{path.stem}.{function}({parameter}=)"
        for path in sorted(PACKAGE.glob("*.py"))
        for function, parameter, position in _defaulted_parameters(ast.parse(path.read_text()))
        if parameter not in readme
        and (function, parameter) not in passed
        and (function, position) not in passed
    ]
    assert unused == []
