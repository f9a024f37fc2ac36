"""Count the bytecode instructions that runs execute, with `sys.monitoring`.

    PYTHONPATH=src python3.12 tests/data/count_instructions.py

Counts INSTRUCTION events over `run` plus `write_traces` of each workload:
`presets`, the six paper figure presets, and `fleet64`, the 64-node fleet
pinned beside this script. The scenarios are loaded and every module is
imported before counting, and each run's traces go to one temporary
directory. Prints each workload's total and the code objects that executed
the most instructions, by file and qualified name. A count is noise-free,
but compares only within one interpreter version. Needs Python 3.12 or
later, and no pytest.
"""

from __future__ import annotations

import platform
import sys
import tempfile
from collections import Counter
from pathlib import Path

if sys.version_info < (3, 12):
    print(f"error: count_instructions.py needs sys.monitoring (Python 3.12+), "
          f"not {platform.python_version()}", file=sys.stderr)
    sys.exit(2)

from digest_runs import PRESETS  # noqa: E402  (after the version check)

from hybridsim.metrics import write_traces  # noqa: E402
from hybridsim.runner import run  # noqa: E402
from hybridsim.scenario import load_scenario, preset_path  # noqa: E402

HERE = Path(__file__).resolve().parent
TOP = 12  # code objects listed per workload


def count(scenarios: list, out: Path) -> Counter:
    """Instructions executed per code object over each scenario's run and
    trace write."""
    monitoring = sys.monitoring
    tool, instruction = monitoring.PROFILER_ID, monitoring.events.INSTRUCTION
    counts: dict = {}

    def counted(code, offset):
        counts[code] = counts.get(code, 0) + 1

    monitoring.use_tool_id(tool, "count_instructions")
    monitoring.register_callback(tool, instruction, counted)
    monitoring.set_events(tool, instruction)
    try:
        for scenario in scenarios:
            write_traces(run(scenario), out)
    finally:
        monitoring.set_events(tool, 0)
        monitoring.register_callback(tool, instruction, None)
        monitoring.free_tool_id(tool)
    by_name = Counter()
    for code, n in counts.items():
        by_name[f"{Path(code.co_filename).name}:{code.co_qualname}"] += n
    return by_name


def main() -> int:
    workloads = {"presets": [load_scenario(preset_path(name)) for name in PRESETS],
                 "fleet64": [load_scenario(HERE / "fleet64.cfg")]}
    print(f"{platform.python_implementation().lower()} {platform.python_version()}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, scenarios in workloads.items():
            by_name = count(scenarios, Path(tmp))
            total = by_name.total()
            print(f"{name}: {total:,} instructions")
            for where, n in by_name.most_common(TOP):
                print(f"  {n:>11,}  {100 * n / total:5.1f} %  {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
