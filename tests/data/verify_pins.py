"""Check the pinned output bytes with the standard library alone.

    PYTHONPATH=src python tests/data/verify_pins.py

Runs the six paper figure presets and each `<name>.cfg` beside this script
through `hybridsim.cli.main` (`run --config CFG --out DIR`) and compares the
sha256 of every file a run writes with its pins, kept in `sha256sum` format:
`presets.sha256` names each file as `<preset>/<file>`, and `<name>.sha256`
pins `<name>.cfg`. Needs no pytest, so any interpreter that runs the
simulator can check that it writes the same bytes. Prints one line per
scenario and exits 1 if any file differs, is missing or is extra. The test
suite checks the pins through the same `pinned()` and `written()`, one test
per pinned scenario (tests/test_acceptance.py).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from hybridsim.cli import main
from hybridsim.scenario import preset_path

HERE = Path(__file__).resolve().parent
PRESETS = HERE / "presets.sha256"


def written(config: Path, out: Path) -> list[str]:
    """The `sha256sum` lines of the files that a run of `config` writes."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", "--config", str(config), "--out", str(out)])
    if code:
        raise SystemExit(f"{config}: hybridsim run exited {code}")
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}"
            for path in out.iterdir()]


def pinned() -> list[tuple[str, Path, list[str]]]:
    """(name, config, pinned lines) of every pinned scenario; a preset's
    lines lose their `<preset>/` prefix."""
    presets: dict[str, list[str]] = {}
    for line in PRESETS.read_text().splitlines():
        digest, name = line.split("  ", 1)
        preset, file = name.split("/")
        presets.setdefault(preset, []).append(f"{digest}  {file}")
    return [*((name, preset_path(name), lines) for name, lines in sorted(presets.items())),
            *((pin.stem, pin.with_suffix(".cfg"), pin.read_text().splitlines())
              for pin in sorted(HERE.glob("*.sha256")) if pin != PRESETS)]


def verify() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, config, lines in pinned():
            wrote, pins = set(written(config, Path(tmp) / name)), set(lines)
            differ = [f"\n  pinned {line}" for line in sorted(pins - wrote)]
            differ += [f"\n  wrote  {line}" for line in sorted(wrote - pins)]
            failed += bool(differ)
            print(f"{'FAIL' if differ else 'ok'}  {name}{''.join(differ)}")
    print(f"{sys.implementation.name} {sys.version.split()[0]}: "
          f"{'%d pinned scenario(s) differ' % failed if failed else 'all pins match'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(verify())
