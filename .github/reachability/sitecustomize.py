"""Line collector of the line-reachability guard (`check.py` beside it).

Python imports this module at start-up in every process whose PYTHONPATH
holds its directory. When LINE_REACHABILITY_OUT is set, it records each
line of `src/sqpo` in this checkout that the process runs, by
`sys.monitoring` (PEP 669) from Python 3.12 on and by `sys.settrace`
before, and at exit writes them to a new file in that directory, one
`path:line` a line.
"""

import atexit
import os
import sys


def _start(out: str) -> None:
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.realpath(__file__))))
    prefix = os.path.join(root, "src", "sqpo", "")
    paths: dict = {}  # each code file name: its real path if under src, else None
    ran: set = set()

    def ours(filename):
        try:
            return paths[filename]
        except KeyError:
            real = os.path.realpath(filename)
            paths[filename] = real if real.startswith(prefix) else None
            return paths[filename]

    if sys.version_info >= (3, 12):
        monitoring = sys.monitoring
        tool = monitoring.COVERAGE_ID
        monitoring.use_tool_id(tool, "line-reachability")

        def line(code, lineno):
            path = ours(code.co_filename)
            if path is not None:
                ran.add((path, lineno))
            return monitoring.DISABLE  # each line is recorded once

        monitoring.register_callback(tool, monitoring.events.LINE, line)
        monitoring.set_events(tool, monitoring.events.LINE)
    else:
        import threading

        def local(frame, event, arg):
            if event == "line":
                ran.add((paths[frame.f_code.co_filename], frame.f_lineno))
            return local

        def call(frame, event, arg):  # lines are traced in our frames only
            return local if ours(frame.f_code.co_filename) is not None else None

        sys.settrace(call)
        threading.settrace(call)

    def write():
        with open(os.path.join(out, os.urandom(8).hex() + ".lines"), "w", encoding="utf-8") as fh:
            fh.writelines(f"{path}:{lineno}\n" for path, lineno in ran)

    atexit.register(write)


if os.environ.get("LINE_REACHABILITY_OUT"):
    _start(os.environ["LINE_REACHABILITY_OUT"])
