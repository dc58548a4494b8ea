import importlib.util

from reachability import Audit

PLANTED = '''\
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
'''


def test_audit_names_what_a_run_never_reaches(tmp_path):
    (tmp_path / "planted.py").write_text(PLANTED)
    audit = Audit(tmp_path)
    spec = importlib.util.spec_from_file_location("planted",
                                                  tmp_path / "planted.py")
    module = importlib.util.module_from_spec(spec)
    with audit.tracing():
        spec.loader.exec_module(module)
        module.used(1, c=3)
        module.Thing().method(d=5)
    assert [fn.qualname for fn in audit.never_entered()] == ["unused"]
    assert [(fn.qualname, name) for fn, name in audit.defaults_kept()] == \
        [("used", "b")]
    # of used's lines 3, 4, 5 and 7, the last two never ran
    assert [(fn.qualname, n) for fn, n in audit.lines_never_run()] == \
        [("used", 2)]
    report = audit.report(tmp_path)
    assert "planted.py:10 unused" in report
    assert "planted.py:1 used: b" in report
