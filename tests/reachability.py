"""Which code of ``src/seqshot`` the user paths never reach.

One process runs every user path under ``sys.settrace``: ``bench/run.py
--seconds 0`` for each workload, the three demos and
``pipeline_digests.run_pipeline`` (all seven CLI subcommands).  It then
prints four lists:

  - functions never entered;
  - keyword parameters that every traced call leaves at their default
    (compared by ``==``; closures and generators are not checked);
  - for each function that was entered, the number of its lines never run;
  - fields of dataclasses that every instance built leaves at their
    default (compared the same way; a dataclass never built is not
    listed).

Lines are those the compiler gives code to, so docstrings are not among
them; the lines of ``raise`` statements are left out, and a
comprehension's lines count under the function it sits in.

    python3 tests/reachability.py

Only the standard library is used; the traced paths need numpy and scipy.
"""

import ast
import contextlib
import dataclasses
import inspect
import io
import json
import os
import runpy
import sys
import tempfile
import types
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("pretrain", "enroll-scan", "episodes")
BENCH_SEED = 11
COMPREHENSIONS = ("<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>")
# frames of these resume mid-body, so their locals are not the arguments
SUSPENDABLE = inspect.CO_GENERATOR | inspect.CO_COROUTINE \
    | inspect.CO_ASYNC_GENERATOR


def _qualname(code):
    return getattr(code, "co_qualname", code.co_name)


def _code_lines(code):
    return {line for _, _, line in code.co_lines() if line is not None}


@dataclass(eq=False)
class Function:
    path: str
    line: int                 # first line, a decorator's if it has one
    qualname: str
    lines: set                # lines that can run, raise lines left out
    ran: set = field(default_factory=set)
    entered: bool = False
    # parameters no traced call has set to other than their default:
    # name -> default; None until the function is first entered
    defaults_kept: dict = None


class Audit:
    """Calls, argument values and lines of the ``.py`` files under
    ``root`` while ``tracing()`` is active."""

    def __init__(self, root):
        self.root = os.path.realpath(root)
        self.functions = []
        self.dataclasses = []
        self._by_key = {}          # (path, first line, qualname) -> Function
        # code object -> (Function, own code, line tracer), or None
        self._known = {}
        self._module_functions = {}    # module name -> {code: function}
        for path in sorted(Path(self.root).rglob("*.py")):
            self._add_file(str(path))

    def _add_file(self, path):
        tree = ast.parse(Path(path).read_text(), path)
        raised = {line for node in ast.walk(tree)
                  if isinstance(node, ast.Raise)
                  for line in range(node.lineno, node.end_lineno + 1)}
        self._add_nested(compile(tree, path, "exec"), None, path, raised)

    def _add_nested(self, code, owner, path, raised):
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            key = (path, const.co_firstlineno, _qualname(const))
            if const.co_name in COMPREHENSIONS:
                if owner is not None:
                    owner.lines |= _code_lines(const) - raised
                    self._by_key[key] = owner
                self._add_nested(const, owner, path, raised)
            elif const.co_flags & inspect.CO_NEWLOCALS:    # not a class body
                fn = Function(path, const.co_firstlineno, _qualname(const),
                              _code_lines(const) - raised
                              - {const.co_firstlineno})
                self.functions.append(fn)
                self._by_key[key] = fn
                self._add_nested(const, fn, path, raised)
            else:
                self._add_nested(const, owner, path, raised)

    @contextlib.contextmanager
    def tracing(self):
        previous = sys.gettrace()
        sys.settrace(self._trace)
        try:
            yield self
        finally:
            sys.settrace(previous)

    def _trace(self, frame, event, arg):
        code = frame.f_code
        try:
            known = self._known[code]
        except KeyError:
            known = self._known[code] = self._learn(frame)
        if known is None:
            return None
        fn, own, trace_lines = known
        fn.entered = True
        if own and fn.defaults_kept:
            args = frame.f_locals
            for name, default in list(fn.defaults_kept.items()):
                if not _same(args[name], default):
                    del fn.defaults_kept[name]
        return trace_lines

    def _learn(self, frame):
        """The Function a code object runs for, whether it is that
        function's own code rather than a comprehension inside it, and
        the trace function that records its lines."""
        code = frame.f_code
        fn = self._by_key.get((os.path.realpath(code.co_filename),
                               code.co_firstlineno, _qualname(code)))
        if fn is None:
            return self._learn_dataclass(frame)
        own = fn.qualname == _qualname(code)
        if own and fn.defaults_kept is None:
            fn.defaults_kept = {}
            if not code.co_flags & SUSPENDABLE:
                function = self._function_of(code, frame.f_globals)
                if function is not None:
                    fn.defaults_kept = _defaults(function)
        ran = fn.ran

        def trace_lines(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return trace_lines
        return fn, own, trace_lines

    def _learn_dataclass(self, frame):
        """What ``_learn`` gives when ``frame`` runs the generated
        ``__init__`` of a dataclass of ``root``: a Function whose
        parameters are the fields, and no line tracer.  Else None.  That
        ``__init__`` is compiled from a string, so its file is
        ``<string>``; its class is read from the instance."""
        code = frame.f_code
        if code.co_name != "__init__" or not code.co_argcount:
            return None
        instance = frame.f_locals[code.co_varnames[0]]
        cls = next((c for c in type(instance).__mro__ if getattr(
            vars(c).get("__init__"), "__code__", None) is code), None)
        if cls is None or not dataclasses.is_dataclass(cls):
            return None
        try:
            path = os.path.realpath(inspect.getsourcefile(cls))
            line = inspect.getsourcelines(cls)[1]
        except (OSError, TypeError):
            return None
        if not path.startswith(self.root + os.sep):
            return None
        # a default_factory field's default here is a marker that only
        # a call which leaves the field out passes
        fn = Function(path, line, cls.__qualname__, set(), entered=True,
                      defaults_kept=_defaults(cls.__init__))
        self.dataclasses.append(fn)
        return fn, True, None

    def _function_of(self, code, namespace):
        """The function of ``namespace``, or a method of one of its
        classes, that runs ``code``.  A module that calls its own
        functions while it is imported has defined only some of them, so
        a miss looks again."""
        name = namespace.get("__name__")
        found = self._module_functions.get(name, {})
        if code not in found:
            found = self._module_functions[name] = {
                f.__code__: f for f in _functions_in(namespace.values(),
                                                     name, set())}
        return found.get(code)

    def never_entered(self):
        return [fn for fn in self.functions if not fn.entered]

    def defaults_kept(self):
        """(Function, parameter) for each parameter left at its default."""
        return [(fn, name) for fn in self.functions
                if fn.entered and fn.defaults_kept for name in fn.defaults_kept]

    def fields_kept(self):
        """(dataclass, field) for each field every instance left at its
        default, in source order."""
        return [(dc, name) for dc in sorted(
            self.dataclasses, key=lambda dc: (dc.path, dc.line))
            for name in dc.defaults_kept]

    def lines_never_run(self):
        """(Function, count) for each entered function with lines not run."""
        return [(fn, len(fn.lines - fn.ran)) for fn in self.functions
                if fn.entered and fn.lines - fn.ran]

    def report(self, base):
        def where(fn):
            return f"{os.path.relpath(fn.path, base)}:{fn.line} {fn.qualname}"
        never = self.never_entered()
        kept = self.defaults_kept()
        unrun = self.lines_never_run()
        fields = self.fields_kept()
        out = [f"functions never entered ({len(never)}):"]
        out += [f"  {where(fn)}" for fn in never]
        out.append(f"keyword parameters every call left at their default "
                   f"({len(kept)}):")
        out += [f"  {where(fn)}: {name}" for fn, name in kept]
        out.append(f"lines never run in entered functions "
                   f"({sum(n for _, n in unrun)} in {len(unrun)}):")
        out += [f"  {where(fn)}: {n}" for fn, n in unrun]
        out.append(f"dataclass fields every instance left at their default "
                   f"({len(fields)}):")
        out += [f"  {where(dc)}: {name}" for dc, name in fields]
        return "\n".join(out)


def _same(value, default):
    if value is default:
        return True
    try:
        return bool(value == default)
    except (TypeError, ValueError):     # arrays have no single truth value
        return False


def _defaults(function):
    """name -> default of each parameter of ``function`` that has one."""
    code = function.__code__
    positional = code.co_varnames[:code.co_argcount]
    values = function.__defaults__ or ()
    out = dict(zip(positional[len(positional) - len(values):], values))
    out.update(function.__kwdefaults__ or {})
    return out


def _functions_in(values, module, seen):
    """The functions among ``values``, and the methods of the classes
    among them that ``module`` defines."""
    for v in values:
        if isinstance(v, (staticmethod, classmethod)):
            v = v.__func__
        if isinstance(v, property):
            yield from _functions_in((v.fget, v.fset, v.fdel), module, seen)
        elif isinstance(v, types.FunctionType):
            yield v
        elif isinstance(v, type) and v.__module__ == module \
                and v not in seen:
            seen.add(v)
            yield from _functions_in(vars(v).values(), module, seen)


def user_paths():
    """Run each workload, demo and CLI subcommand once."""
    bench = runpy.run_path(str(ROOT / "bench" / "run.py"))
    for w in WORKLOADS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = bench["main"](["--workload", w, "--seconds", "0",
                                  "--seed", str(BENCH_SEED)])
        if code != 0 or not json.loads(out.getvalue().splitlines()[-1])[
                "correct"]:
            raise SystemExit(f"reachability: workload {w} failed")
    for demo in sorted((ROOT / "demos").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(demo), run_name="__main__")
    # imported late: it imports seqshot, which main puts on the path
    from pipeline_digests import run_pipeline
    with tempfile.TemporaryDirectory() as work:
        run_pipeline(work)


def main():
    sys.path.insert(0, str(ROOT / "src"))
    audit = Audit(ROOT / "src" / "seqshot")
    with audit.tracing():
        user_paths()
    print(audit.report(ROOT))


if __name__ == "__main__":
    main()
