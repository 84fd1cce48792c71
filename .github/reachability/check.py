"""Line-reachability guard: every line of `src/sqpo` runs in the tier-1 suite.

Run from anywhere in a checkout, with the test dependencies installed:

    python .github/reachability/check.py

It runs the whole tier-1 suite with this directory and `src` first on
PYTHONPATH, so that `sitecustomize.py` here starts a line collector in the
suite's process and in every Python process the suite starts with its
environment (the CLI subprocesses). Each process writes the lines of
`src/sqpo` it ran when it exits. The guard fails if the suite fails, or
if a line that holds code ran in no process and is not allowed by
`allowlist.txt`: a `__repr__` body or a `return NotImplemented` in a
listed function. An entry that allows nothing fails it too, so the list
stays short. Hypothesis draws from a fixed seed and PYTHONHASHSEED is
fixed, so that a line only some draws or some set orders reach cannot come
and go between runs.

The collector uses `sys.settrace` before Python 3.12 and `sys.monitoring`
(PEP 669) from 3.12 on. Under `sys.settrace` the suite runs about 2.6
times as long on CPython 3.11 and 1.7 times on 3.13, which is why this is
a CI job of its own and not a tier-1 test; under `sys.monitoring` it runs
within a few percent of its untraced time.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src" / "sqpo"


def executable_lines(path: Path) -> set[int]:
    """The lines of `path` that hold an instruction of its compiled code."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def _functions(tree: ast.Module):
    """Each function of a module with its qualified name (`Class.method`)."""
    todo = [("", node) for node in tree.body]
    while todo:
        prefix, node = todo.pop()
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + node.name
            if not isinstance(node, ast.ClassDef):
                yield name, node
            todo.extend((name + ".", child) for child in node.body)


def allowed_lines() -> tuple[dict[str, set[int]], list[str]]:
    """The lines `allowlist.txt` allows to stay unrun, by file name under
    `src/sqpo`, and a message for each entry that allows none."""
    allowed: dict[str, set[int]] = {}
    stale = []
    for entry in (HERE / "allowlist.txt").read_text(encoding="utf-8").splitlines():
        if not entry.strip() or entry.startswith("#"):
            continue
        file, qualname = entry.split()
        path = SRC / file
        functions = dict(_functions(ast.parse(path.read_text(encoding="utf-8")))) if path.exists() else {}
        lines = set()
        if (function := functions.get(qualname)) is not None:
            if function.name == "__repr__":
                lines.update(range(function.body[0].lineno, function.end_lineno + 1))
            lines.update(
                node.lineno for node in ast.walk(function)
                if isinstance(node, ast.Return) and isinstance(node.value, ast.Name)
                and node.value.id == "NotImplemented"
            )
        if not lines:
            stale.append(f"allowlist.txt: {entry} allows no line")
        allowed.setdefault(file, set()).update(lines)
    return allowed, stale


def main() -> int:
    with tempfile.TemporaryDirectory() as out:
        env = dict(
            os.environ,
            LINE_REACHABILITY_OUT=out,
            PYTHONHASHSEED="0",
            PYTHONPATH=os.pathsep.join(filter(None, [str(HERE), str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
        )
        suite = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
             "-p", "no:cacheprovider", "--hypothesis-seed=0"],
            cwd=ROOT,
            env=env,
        )
        ran: set[tuple[str, int]] = set()
        for record in Path(out).iterdir():
            for line in record.read_text(encoding="utf-8").splitlines():
                path, _, lineno = line.rpartition(":")
                ran.add((path, int(lineno)))
    allowed, problems = allowed_lines()
    executable = 0
    for path in sorted(SRC.glob("*.py")):
        real, text = os.path.realpath(path), path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        executable += len(lines)
        for lineno in sorted(lines - allowed.get(path.name, set())):
            if (real, lineno) not in ran:
                problems.append(f"{path.relative_to(ROOT)}:{lineno}: not run: {text[lineno - 1].strip()}")
    print("\n".join(problems))
    print(f"line reachability: {executable} lines with code in src/sqpo, {len(problems)} problems")
    if suite.returncode:
        print(f"line reachability: the suite failed (exit {suite.returncode})")
    return 1 if problems or suite.returncode else 0


if __name__ == "__main__":
    sys.exit(main())
