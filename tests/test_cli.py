"""Command-line surface: verbs, flags, output files, exit codes."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import hybridsim
from hybridsim.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main
from hybridsim.scenario import load_scenario, preset_path
from hybridsim.validation import default_calibration_path
from conftest import digest_runs

FIG11 = str(preset_path("paper_fig11"))

SHORT_CFG = """
[scenario]
duration_s = 60
init_delay_s = 5
node_count = 2
optimizer = etno
seed = 9
"""


@pytest.fixture()
def short_cfg(tmp_path):
    path = tmp_path / "short.cfg"
    path.write_text(SHORT_CFG)
    return str(path)


class TestRun:
    def test_run_writes_traces_and_summary(self, short_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--config", short_cfg, "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "summary.json").exists()
        assert (out / "trace_node1.csv").exists()
        stdout = capsys.readouterr().out
        assert "node1" in stdout and "MB" in stdout
        # A regular file cannot take the traces.
        taken = out / "summary.json"
        assert main(["run", "--config", short_cfg, "--out", str(taken)]) == EXIT_RUNTIME
        assert f"runtime error: cannot write traces under {taken}" in capsys.readouterr().err

    def test_seed_override_lands_in_summary(self, short_cfg, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", short_cfg, "--seed", "77", "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 77

    def test_optimizer_override(self, short_cfg, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", short_cfg, "--optimizer", "euno",
              "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["optimizer"] == "euno"

    def test_missing_config_is_validation_failure(self, tmp_path):
        latin1 = tmp_path / "latin1.cfg"
        latin1.write_bytes(b"[scenario]\n# caf\xe9\nduration_s = 60\n")
        for config in (tmp_path / "nope.cfg", tmp_path, latin1):
            assert main(["run", "--config", str(config)]) == EXIT_VALIDATION

    def test_etno_resumes_after_battery_low(self, tmp_path):
        # f_c lies above ETNO's sleep threshold, so the policy resumes at the
        # battery-low edge that powered both interfaces off; waking must bring
        # the optical interface back before it transmits.
        cfg = tmp_path / "etno.cfg"
        cfg.write_text("[scenario]\nduration_s = 60\noptimizer = etno-owc\n\n"
                       "[energy]\nbattery_capacity_j = 0.5\n\n[weights]\nf_c = 0.35\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK

    def test_output_is_identical_across_processes(self, tmp_path):
        # The model's enums hash by object identity, and object addresses
        # differ between processes as string hashes differ between hash
        # seeds; no output may depend on either. The run covers battery
        # edges, sleep, a modality switch, SNR jitter and a lost packet. The
        # files are also those of `digest_runs.outputs`, which digests the
        # pinned runs without the CLI.
        cfg = tmp_path / "cross.cfg"
        cfg.write_text("[scenario]\nduration_s = 90\ninit_delay_s = 1\nnode_count = 3\n"
                       "seed = 5\noptimizer = euno\ninter_transmission_sleep = false\n\n"
                       "[traffic]\npoll_slot_s = 5\n\n"
                       "[energy]\nbattery_capacity_j = 0.5\nharvest_mw = 5\n\n"
                       "[optimizer]\nsnr_jitter_db = 2\n")
        src = str(Path(hybridsim.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("0", "1"):
            out = tmp_path / f"out{hash_seed}"
            done = subprocess.run(
                [sys.executable, "-m", "hybridsim.cli", "run", "--config", str(cfg),
                 "--out", str(out)],
                env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src},
                capture_output=True, text=True, timeout=120)
            assert done.returncode == EXIT_OK, done.stderr
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert sorted(outputs[0]) == ["summary.json", "trace_node1.csv",
                                      "trace_node2.csv", "trace_node3.csv"]
        assert outputs[0] == outputs[1]
        assert outputs[0] == digest_runs.outputs(load_scenario(cfg))["files"]

    def test_source_builds_no_sets(self):
        # A set iterates in hash order: by address for the model's enums,
        # which repeats between these processes, so the test above cannot
        # catch an output that follows it. `src/` therefore builds no sets;
        # a membership test takes a tuple or a dict.
        found = []
        for path in sorted(Path(hybridsim.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, (ast.Set, ast.SetComp)) or (
                        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in ("set", "frozenset")):
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []

    def test_source_sums_no_floats_with_the_builtin(self):
        # Since Python 3.12 the builtin `sum` of floats is compensated, so it
        # can return another double than 3.10 and 3.11 do. `src/` adds floats
        # left to right in plain loops; the frame codec's byte checksums are
        # integers, exact on every version.
        found = []
        for path in sorted(Path(hybridsim.__file__).parent.glob("*.py")):
            if path.name == "vlcframe.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "sum"):
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []

    def test_source_defines_nothing_it_does_not_use(self):
        # Every public module-level function and class is referenced
        # somewhere in `src/` outside its own definition, an import counting.
        # The optical-frame codec is the one documented API that the
        # simulator itself never calls.
        def names(tree):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    yield node.id
                elif isinstance(node, ast.Attribute):
                    yield node.attr
                elif isinstance(node, ast.alias):
                    yield node.name

        codec = ("encode_vlc_frame", "decode_vlc_chunks")
        paths = sorted(Path(hybridsim.__file__).parent.glob("*.py"))
        trees = {path.name: ast.parse(path.read_text(), str(path)) for path in paths}
        used = Counter(name for tree in trees.values() for name in names(tree))
        unused = [f"{module}:{node.name}" for module, tree in trees.items()
                  for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_") and node.name not in codec
                  and used[node.name] == list(names(node)).count(node.name)]
        assert unused == []

    def test_import_loads_no_dataclasses(self):
        # `dataclasses` pulls in `inspect`, `ast` and `dis`, and every record
        # it makes execs generated code at import; each CLI call paid both
        # before the simulation started. `typing` is a large module that the
        # package needs for no annotation. A fresh interpreter without `site`,
        # whose `.pth` files may import anything, shows what the package
        # itself loads.
        src = str(Path(hybridsim.__file__).resolve().parents[1])
        code = ("import sys\n"
                "for module in ('hybridsim', 'hybridsim.cli'):\n"
                "    __import__(module)\n"
                "    print(module, [m for m in ('dataclasses', 'inspect', 'typing')\n"
                "                   if m in sys.modules])\n")
        done = subprocess.run([sys.executable, "-S", "-c", code],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "hybridsim []\nhybridsim.cli []\n"


class TestSweep:
    def test_single_rate_single_optimizer(self, short_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["sweep", "--config", short_cfg, "--rates", "100",
                     "--optimizer", "etno", "--out", str(out)])
        assert code == EXIT_OK
        text = (out / "sweep.csv").read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "target_rate_kbps,optimizer,achieved_rate_kbps"
        assert len(lines) == 2 and lines[1].startswith("100,etno,")

    def test_all_optimizers_by_default(self, short_cfg, capsys):
        code = main(["sweep", "--config", short_cfg, "--rates", "50"])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "euno" in stdout and "etno-owc" in stdout

    def test_empty_rates_rejected(self, short_cfg):
        assert main(["sweep", "--config", short_cfg, "--rates", ","]) == EXIT_VALIDATION

    @pytest.mark.parametrize("rates", ["100,abc", "abc"])
    def test_non_numeric_rate_is_validation_failure(self, short_cfg, capsys, rates):
        assert main(["sweep", "--config", short_cfg, "--rates", rates]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "--rates" in err and "abc" in err


class TestSelfChecks:
    def test_validate_ber_passes(self, capsys):
        assert main(["validate-ber"]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_check_calibration_passes(self, tmp_path, capsys):
        assert main(["check-calibration"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "ble_uplink_normal" in out and "FAIL" not in out
        # A blank line inside the table is no row.
        lines = default_calibration_path().read_text().splitlines(keepends=True)
        spaced = tmp_path / "spaced.csv"
        spaced.write_text("".join([*lines[:3], "\n", *lines[3:]]))
        assert main(["check-calibration", "--table", str(spaced)]) == EXIT_OK
        assert capsys.readouterr().out == out

    def test_corrupt_table_fails_with_code_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(default_calibration_path().read_text().replace(
            "ble,uplink_tx,normal,9.1,", "ble,uplink_tx,normal,18.2,"))
        assert main(["check-calibration", "--table", str(bad)]) == EXIT_VALIDATION
        assert "FAIL ble_uplink_normal" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, make, names", [
        ("--table", lambda path: path.mkdir(), None),
        ("--table", lambda path: path.write_bytes(
            default_calibration_path().read_bytes() + "caf\xe9,x,normal,1,\n".encode("latin-1")),
         None),
        ("--table", lambda path: path.write_text(default_calibration_path().read_text().replace(
            "ble,uplink_tx,normal,9.1,3.13", "ble,uplink_tx,normal,9.1,")),
         "ble/uplink_tx/normal"),
        # Read as 68 ms for the energy and as 0 ms for the airtime before.
        ("--table", lambda path: path.write_text(default_calibration_path().read_text().replace(
            "node,vlc_tx_chunk,normal,9.15,68", "node,vlc_tx_chunk,normal,9.15,")),
         "node/vlc_tx_chunk/normal"),
        ("--table", lambda path: path.write_bytes(
            default_calibration_path().read_bytes() + b"ble,uplink_tx,normal,99.0,3.13\r\n"),
         "ble/uplink_tx/normal"),
        ("--table", lambda path: path.write_text(default_calibration_path().read_text().replace(
            "ble,adv_idle_8dbm,normal,5.48,148.32", "ble,adv_idle_8dbm,normal,5.48")),
         "input:4: bad row"),
        ("--table", lambda path: path.write_text(default_calibration_path().read_text().replace(
            "ble,adv_idle_8dbm,normal,5.48,148.32", "ble,adv_idle_8dbm,normal,5.48,148.32,1")),
         "input:4: bad row"),
        ("--fixture", lambda path: path.mkdir(), None),
        ("--fixture", lambda path: path.write_text("snr_db,ber\n0.0,0.12\n0.5,high\n"),
         ":3:"),
        ("--fixture", lambda path: path.write_text("snr,error_rate\n0.0,0.12\n"), "snr_db,ber"),
        ("--fixture", lambda path: path.write_text("snr_db,ber\n"),
         "no reference point fell in the window"),
    ], ids=["table-directory", "table-latin-1", "table-blank-uplink-duration",
            "table-blank-chunk-duration", "table-repeated-key", "table-short-row",
            "table-long-row", "fixture-directory", "fixture-non-numeric-ber",
            "fixture-wrong-header", "fixture-header-only"])
    def test_malformed_input_is_validation_failure(self, tmp_path, capsys, flag, make, names):
        path = tmp_path / "input"
        make(path)
        command = "check-calibration" if flag == "--table" else "validate-ber"
        assert main([command, flag, str(path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert str(path) in captured.err
        assert names is None or names in captured.err
        assert "FAIL" not in captured.out


class TestPrintConfig:
    def test_the_largest_bounded_run_loads(self, tmp_path, capsys):
        # 10,000 nodes for 355 s plus the 5 s start-up: 3,600,000 node-seconds.
        path = tmp_path / "largest.cfg"
        path.write_text("[scenario]\nnode_count = 10000\nduration_s = 355\n")
        assert main(["print-config", "--config", str(path)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["node_count"] == 10000

    def test_echo_parses_as_json(self, capsys):
        assert main(["print-config", "--config", FIG11]) == EXIT_OK
        echo = json.loads(capsys.readouterr().out)
        assert echo["optimizer"] == "etno"
        assert echo["weights"]["p_m"] == 0.91
