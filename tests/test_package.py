import ast
import importlib
import pkgutil
import re
from collections import Counter
from pathlib import Path

import qkdsec

ROOT = Path(__file__).resolve().parent.parent

# Exported names that no code in src/ or bench/ refers to, kept for a caller
# outside them.
UNCALLED_KEPT = {
    "accept_probability": "bench/tracer.py traces it by its name",
    "qkd_robustness_eval": "acceptance criterion 07 measures the robustness with it",
    "partial_trace": "tests/bb84_oracle.py rebuilds the engine's states with it",
    "flatten_cq": "the tests' reference for cq_trace_distance",
    "secrecy_distance": "tests/bb84_oracle.py computes the secrecy term with it",
    "pure_state": "the README's library example calls it",
    "tensor_cq": "the tests' reference for two systems run side by side",
}


def test_every_module_all_names_resolve_once():
    # a name deleted from a module must leave its __all__ too
    names = ["qkdsec"] + [info.name for info in
                          pkgutil.walk_packages(qkdsec.__path__, "qkdsec.")]
    checked = []
    for name in names:
        module = importlib.import_module(name)
        if not hasattr(module, "__all__"):
            continue
        exported = list(module.__all__)
        assert len(set(exported)) == len(exported), name
        assert [n for n in exported if not hasattr(module, n)] == [], name
        checked.append(name)
    assert {"qkdsec", "qkdsec.qstate", "qkdsec.protocols.auth"} <= set(checked)


def _referenced_names(tree) -> Counter:
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_exported_function_and_class_has_a_caller():
    # a name counts as called when some code in src/ or bench/ outside its
    # own definition refers to it (by bare name or as an attribute)
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    trees = [ast.parse(path.read_text(), str(path)) for path in paths]
    everywhere = sum((_referenced_names(tree) for tree in trees), Counter())
    uncalled = []
    for tree in trees:
        exported = {name for node in tree.body if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                    for name in ast.literal_eval(node.value)}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in exported \
                    and everywhere[node.name] == _referenced_names(node)[node.name]:
                uncalled.append(node.name)
    assert sorted(set(uncalled) - set(UNCALLED_KEPT)) == []
    assert sorted(set(UNCALLED_KEPT) - set(uncalled)) == []


def test_readme_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
