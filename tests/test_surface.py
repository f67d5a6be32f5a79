"""The public surface: the package exports exactly what the README's
library section imports, and every name the benchmark tracer wraps
still resolves."""

import ast
import contextlib
import importlib
import importlib.util
import io

import dissipate

from conftest import REPO_ROOT


def readme_library_block():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_the_package_exports_what_the_readme_imports():
    code = readme_library_block()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    imported = [
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "dissipate"
        for alias in node.names
    ]
    assert sorted(dissipate.__all__) == sorted(imported + ["__version__"])
    p_min, p_max = out.getvalue().splitlines()[0].split()
    assert p_min.startswith("1.1715") and p_max.startswith("6.8284")


def test_every_name_the_tracer_wraps_resolves():
    path = REPO_ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [(modname, attr) for modname, attr, _, _ in tracing._SPANS]
    targets.append(("pointwise", "min_eigenvalue"))
    for modname, attr in targets:
        owner = importlib.import_module(f"dissipate.{modname}")
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = vars(owner)[cls_name]
        # methods are wrapped on the class that defines them
        assert callable(vars(owner).get(attr)), f"dissipate.{modname}.{attr}"
