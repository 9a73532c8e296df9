"""Map which statements of ``src/rotorarm`` the benchmark's workloads execute.

Run from a source checkout:

    PYTHONPATH=src python tests/traffic_map.py

Under ``sys.settrace``, with line events taken only in the package's own
files, it runs what each perfbench workload runs:

* the first ``FLIGHT_S`` seconds of each flight in ``flight_digests.FLIGHTS``
  (``flight_sqp`` and the pinv route);
* one round of perfbench's ``alloc_chain`` workload, its ``AllocChain``
  imported from ``perfbench/worker.py`` as ``tick_profile.py`` imports it;
* a ``SWEEP_SAMPLES``-sample efficiency sweep of ``octahedron_rot`` and of
  ``hexagon_tilt30_fixed`` (``hover_map`` and ``hover_map_fixed``);
* the four CLI commands, in-process, on short runs that write into a
  temporary directory.

The package is imported after the trace is installed, so its module-level
statements count too. For each module it then prints how many statements
no run reached, and those lines. Docstrings, ``def`` and ``class`` lines,
imports and ``global`` declarations are not counted; a statement is reached
when a line event falls on its first line, or for a compound statement on
any line of its header. The program is not changed and no logged value
moves. The file name does not match ``test_*.py``, so the test suite does
not collect it.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
FLIGHT_S = 2.0
SWEEP_SAMPLES = 200
SWEEP_LAYOUTS = ("octahedron_rot", "hexagon_tilt30_fixed")
CHAIN_LAYOUT = "octahedron_rot"

_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
            ast.Global, ast.Nonlocal)


def statement_lines(source: str) -> dict[int, range]:
    """First line -> the lines that count as reaching it, for every counted statement of a module."""
    lines = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring, or any other bare constant
        body = getattr(node, "body", None)
        end = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        lines[node.lineno] = range(node.lineno, end + 1)
    return lines


class LineTrace:
    """The (file, line) pairs that line events reached in the files under ``root``."""

    def __init__(self, root: Path):
        self.root = str(root)
        self.reached: set[tuple[str, int]] = set()

    def _local(self, frame, event, arg):
        if event == "line":
            self.reached.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def _global(self, frame, event, arg):
        return self._local if frame.f_code.co_filename.startswith(self.root) else None

    def __enter__(self):
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)


def run_workloads(out: Path) -> None:
    """Everything the map counts; imports the package, so it runs under the trace."""
    sys.path.insert(0, str(TESTS))
    import flight_digests
    import tick_profile
    from rotorarm import DroneModel, Scenario, build_catalog, cli, run_flight, sweep_orientations

    for name, (geometry, factory, sweep_args, scenario_args) in flight_digests.FLIGHTS.items():
        model = DroneModel(build_catalog(geometry))
        run_flight(Scenario(model=model, sweep=factory(**sweep_args), duration=FLIGHT_S, **scenario_args))

    tick_profile.alloc_chain(CHAIN_LAYOUT).round(tick_profile._Untimed())

    for layout in SWEEP_LAYOUTS:
        sweep_orientations(build_catalog(layout), SWEEP_SAMPLES)

    request = out / "request.json"
    request.write_text(json.dumps({"q": [1.0, 0.0, 0.0, 0.0], "F": [0.0, 0.0, 23.5],
                                   "M": [0.0, 0.0, 0.0]}))
    short = out / "short.json"
    short.write_text(json.dumps({"duration": 2.0 * FLIGHT_S, "settle": FLIGHT_S}))
    for argv, target in ((["efficiency", "--samples", "100"], out / "efficiency"),
                         (["allocate", str(request)], out / "allocation.json"),
                         (["fly", "--config", str(short)], out / "fly"),
                         (["compare", "--config", str(short)], out / "compare")):
        with contextlib.redirect_stdout(io.StringIO()):  # the paths each command wrote
            code = cli.main(argv + ["--out", str(target)])
        if code != 0:
            raise SystemExit(f"rotorarm {argv[0]} exited {code}")


def report(root: Path, reached: set[tuple[str, int]]) -> None:
    total_statements = total_unreached = 0
    for path in sorted(root.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        hit = {line for filename, line in reached if filename == str(path)}
        statements = statement_lines(source)
        unreached = sorted(first for first, span in statements.items() if hit.isdisjoint(span))
        total_statements += len(statements)
        total_unreached += len(unreached)
        print(f"{path.name}: {len(unreached)} of {len(statements)} statements unreached")
        for first in unreached:
            print(f"  {first:5d}  {text[first - 1].strip()}")
    print(f"total: {total_unreached} of {total_statements} statements unreached")


def main() -> int:
    spec = importlib.util.find_spec("rotorarm")  # finds the package without importing it
    root = Path(spec.origin).parent  # as the code objects name their files
    if "rotorarm" in sys.modules:
        raise SystemExit("rotorarm is already imported, so its module-level lines would not be traced")
    with tempfile.TemporaryDirectory() as tmp, LineTrace(root) as trace:
        run_workloads(Path(tmp))
    report(root, trace.reached)
    return 0


if __name__ == "__main__":
    sys.exit(main())
