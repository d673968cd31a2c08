import importlib
import pkgutil

import qkdsec


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
