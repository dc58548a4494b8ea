import importlib.util
import sys

from reachability import Audit

PLANTED = '''\
import dataclasses


def used(a, b=1, c=2):
    """Docstring lines never run and are not counted."""
    if a:
        return b + c
    if a is None:
        raise ValueError("raise lines are not counted")
    return 0


def unused():
    return [i for i in range(3)]


class Thing:
    def method(self, d=4):
        return d


@dataclasses.dataclass
class Settings:
    e: int = 5
    f: list = dataclasses.field(default_factory=list)
    g: int = 6
'''


def test_audit_names_what_a_run_never_reaches(tmp_path, monkeypatch):
    (tmp_path / "planted.py").write_text(PLANTED)
    audit = Audit(tmp_path)
    spec = importlib.util.spec_from_file_location("planted",
                                                  tmp_path / "planted.py")
    module = importlib.util.module_from_spec(spec)
    # as an import does: the audit finds a dataclass's file by its module
    monkeypatch.setitem(sys.modules, "planted", module)
    with audit.tracing():
        spec.loader.exec_module(module)
        module.used(1, c=3)
        module.Thing().method(d=5)
        module.Settings(e=7)
        module.Settings(f=[1])
    assert [fn.qualname for fn in audit.never_entered()] == ["unused"]
    assert [(fn.qualname, name) for fn, name in audit.defaults_kept()] == \
        [("used", "b")]
    # of used's lines 6, 7, 8 and 10, the last two never ran
    assert [(fn.qualname, n) for fn, n in audit.lines_never_run()] == \
        [("used", 2)]
    assert [(dc.qualname, name) for dc, name in audit.fields_kept()] == \
        [("Settings", "g")]
    report = audit.report(tmp_path)
    assert "planted.py:13 unused" in report
    assert "planted.py:4 used: b" in report
    assert "planted.py:22 Settings: g" in report
