"""Line audit: list every statement of ``src/aotlab`` that a pytest run never runs.

A stdlib-only pytest plugin.  From the repository root::

    PYTHONPATH=src:tools python -m pytest -p line_audit tests bench/tests \\
        --deselect tests/test_acceptance.py

The plugin traces every Python thread of the pytest process through
``sys.settrace`` and ``threading.settrace`` and, after the run, prints each
statement under ``src/aotlab`` that holds bytecode but never executed, as
``path:first-last  source``.  A statement nested in one already listed is
not listed again.  Code run in a subprocess (``python -m aotlab`` started by
a test, pool workers) is not traced, so its lines count as never run.
Tracing about doubles the run time of the suite, so the plugin is not part
of the regular test run.
"""

from __future__ import annotations

import ast
import dis
import os
import sys
import threading

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "aotlab") + os.sep


class LineAudit:
    """Collects line events of the files under ``prefix``."""

    def __init__(self, prefix: str = SRC):
        self.prefix = prefix
        self.hits: dict[str, set[int]] = {}
        self._mine: dict[str, bool] = {}

    # A tracer can still be called during interpreter shutdown, when module
    # globals are already None, so everything it touches is bound as a
    # default argument.
    def tracer(self):
        """The global trace function; it returns ``local`` for our files."""
        hits, mine, prefix = self.hits, self._mine, self.prefix

        def local(frame, event, arg, hits=hits):
            if event == "line":
                hits[frame.f_code.co_filename].add(frame.f_lineno)
            return local

        def global_(frame, event, arg, hits=hits, mine=mine, prefix=prefix,
                    abspath=os.path.abspath):
            name = frame.f_code.co_filename
            ours = mine.get(name)
            if ours is None:
                ours = mine[name] = abspath(name).startswith(prefix)
                if ours:
                    hits.setdefault(name, set())
            return local if ours else None

        return global_

    def start(self) -> None:
        tracer = self.tracer()
        threading.settrace(tracer)
        sys.settrace(tracer)

    @staticmethod
    def stop() -> None:
        sys.settrace(None)
        threading.settrace(None)

    def unrun(self) -> list[tuple[str, int, int, str]]:
        """(path, first line, last line, first source line) of each statement
        that never ran, outermost only, in file order."""
        by_path: dict[str, set[int]] = {}
        for name, lines in self.hits.items():
            by_path.setdefault(os.path.abspath(name), set()).update(lines)
        out = []
        for root, _, files in os.walk(self.prefix):
            for fname in sorted(files):
                if fname.endswith(".py"):
                    path = os.path.join(root, fname)
                    out += _unrun_in_file(path, by_path.get(path, set()))
        return sorted(out)


def _code_lines(code) -> set[int]:
    lines = {line for _, line in dis.findlinestarts(code) if line}
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            lines |= _code_lines(const)
    return lines


def _header(node: ast.stmt) -> range:
    """Lines of a statement that belong to it and not to a nested body."""
    first = min([node.lineno] + [d.lineno for d in
                                 getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(first, max(first + 1, body[0].lineno))
    return range(first, node.end_lineno + 1)


def _children(node: ast.AST):
    for name in ("body", "orelse", "finalbody", "handlers", "cases"):
        for child in getattr(node, name, None) or []:
            if isinstance(child, getattr(ast, "match_case", ())):
                yield from child.body
            else:
                yield child


def _unrun_in_file(path: str, hits: set[int]) -> list:
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    lines = source.splitlines()
    code = _code_lines(compile(source, path, "exec"))
    out = []

    def visit(stmts, parent_unrun: bool) -> None:
        for node in stmts:
            header = set(_header(node))
            unrun = parent_unrun
            if header & code and not parent_unrun and not header & hits:
                out.append((path, node.lineno, node.end_lineno,
                            lines[node.lineno - 1].strip()))
                unrun = True
            visit(_children(node), unrun)

    visit(ast.parse(source).body, False)
    return out


_audit = LineAudit()


def pytest_configure(config) -> None:
    _audit.start()


def pytest_terminal_summary(terminalreporter) -> None:
    LineAudit.stop()
    found = _audit.unrun()
    root = os.path.dirname(os.path.dirname(_audit.prefix.rstrip(os.sep)))
    terminalreporter.section("line audit")
    for path, first, last, text in found:
        span = f"{first}" if first == last else f"{first}-{last}"
        terminalreporter.write_line(f"{os.path.relpath(path, root)}:{span}  {text}")
    terminalreporter.write_line(f"{len(found)} statements under "
                                f"{os.path.relpath(_audit.prefix, root)} never ran")
