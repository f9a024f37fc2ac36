"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion. The reference scenarios are the shipped paper_fig* presets; the
quantitative window on absolute totals is +/-20 % with tight ordering and
ratio gates on matched-seed comparisons.
"""

import random
import time

import pytest

from hybridsim.actions import Mode, Modality
from hybridsim.metrics import write_traces
from hybridsim.optimizer import (UtilityWeights, energy_utility, euno_select, ewma_update,
                                 screen_utility)
from hybridsim.runner import run, sweep
from hybridsim.scenario import load_scenario, preset_path
from hybridsim.validation import check_calibration, validate_ber
from hybridsim.vlcframe import (ChunkStream, FrameCodecError, VlcFrame,
                                decode_vlc_chunks, encode_vlc_frame)
from conftest import action_rows, action_set, digest_runs
from test_optimizer import (ModalityScores, UtilityBreakdown, energy_weight,
                            localization_utility, mobility_probability, modality_utility,
                            total_utility)

W = UtilityWeights()

REFERENCE_MB = {
    "paper_fig11": 5.78,   # threshold policy, no inter-transmission sleep
    "paper_fig11b": 10.72,  # threshold policy, with inter-transmission sleep
    "paper_fig12": 6.68,   # utility policy, no inter-transmission sleep
    "paper_fig12b": 11.32,  # utility policy, with inter-transmission sleep
}
SWEEP_RATES = list(digest_runs.SWEEP_RATES)  # pinned there run by run


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def fig_runs():
    out = {}
    for preset in REFERENCE_MB:
        scenario = load_scenario(preset_path(preset))
        t0 = time.perf_counter()
        metrics = run(scenario)
        out[preset] = (metrics, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def sweep_result():
    base = load_scenario(preset_path("paper_fig14"))
    return sweep(base, SWEEP_RATES)


@pytest.fixture(scope="module")
def oscillation_runs():
    protected = run(load_scenario(preset_path("paper_fig13")))
    free = run(load_scenario(preset_path("paper_fig13b")))
    return protected, free


def test_criterion_1_calibration_fidelity():
    t0 = time.perf_counter()
    report = check_calibration()
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"{c.name}={c.computed_j:.3g}J({c.relative_error*100:.1f}%)"
                       for c in report.checks)
    _report("criterion 1 (calibration fidelity, +/-5%)",
            report.passed and elapsed < 1.0,
            f"{detail}, airtime={report.frame_airtime_s:.3f}s, {elapsed:.2f}s")


def test_criterion_2_gfsk_curve():
    t0 = time.perf_counter()
    report = validate_ber()
    elapsed = time.perf_counter() - t0
    _report("criterion 2 (GFSK curve, <=0.5 dB horizontal)",
            report.passed and elapsed < 1.0 and len(report.deviations_db) > 0,
            f"max deviation {report.max_deviation_db:.4f} dB over "
            f"{len(report.deviations_db)} points, {elapsed:.2f}s")


def test_criterion_3_scenario_reproduction(fig_runs):
    ok = True
    details = []
    for preset, reference in REFERENCE_MB.items():
        metrics, elapsed = fig_runs[preset]
        got = metrics.node(1).megabytes_delivered
        deviation = (got - reference) / reference
        ok = ok and abs(deviation) <= 0.20 and elapsed < 10.0
        details.append(f"{preset}={got:.2f}MB({deviation*100:+.1f}%,{elapsed:.1f}s)")
    _report("criterion 3 (totals within +/-20%, runs <10s)", ok, " ".join(details))


def test_criterion_4a_sleep_beats_no_sleep(fig_runs):
    etno_ns = fig_runs["paper_fig11"][0].node(1).megabytes_delivered
    etno_ws = fig_runs["paper_fig11b"][0].node(1).megabytes_delivered
    euno_ns = fig_runs["paper_fig12"][0].node(1).megabytes_delivered
    euno_ws = fig_runs["paper_fig12b"][0].node(1).megabytes_delivered
    _report("criterion 4a (with-sleep > without-sleep)",
            etno_ws > etno_ns and euno_ws > euno_ns,
            f"etno {etno_ws:.2f}>{etno_ns:.2f}, euno {euno_ws:.2f}>{euno_ns:.2f}")


def test_criterion_4b_optimizer_ordering(sweep_result):
    ok = True
    details = []
    for rate in SWEEP_RATES:
        e = sweep_result.achieved(rate, "euno")
        t = sweep_result.achieved(rate, "etno")
        o = sweep_result.achieved(rate, "etno-owc")
        ok = ok and e >= t >= o
        ok = ok and max(e, t, o) <= rate  # achieved never exceeds the target
        details.append(f"{rate:.0f}: {e:.1f}/{t:.1f}/{o:.1f}")
    # energy-limited knee: the highest target no longer lifts the best policy
    knee = sweep_result.achieved(SWEEP_RATES[-1], "euno") < SWEEP_RATES[-1] * 0.95
    _report("criterion 4b (euno >= etno >= etno-owc at rates >= 150)",
            ok and knee, "; ".join(details))


def test_criterion_4c_rate_ratio(sweep_result):
    ratio = (sweep_result.achieved(300.0, "euno")
             / sweep_result.achieved(300.0, "etno"))
    _report("criterion 4c (euno/etno ratio at 300 kb/s in [1.02, 1.15])",
            1.02 <= ratio <= 1.15, f"ratio = {ratio:.4f}")


def test_criterion_4d_euno_reads_a_dead_link():
    # At 35 m the optical link delivers no packet and the radio every one:
    # EUNO, which scores the rate a row delivers, must stream on the radio
    # as ETNO's best-SNR rule does.
    ok, details = True, []
    for euno, etno in (("paper_fig12", "paper_fig11"), ("paper_fig12b", "paper_fig11b")):
        euno_b, etno_b = (
            [nm.bytes_delivered for _, nm in sorted(
                run(load_scenario(preset_path(name)).replace(distance_m=35.0)).nodes.items())]
            for name in (euno, etno))
        ok = ok and all(e >= t for e, t in zip(euno_b, etno_b))
        details.append(f"{euno} {euno_b} vs {etno} {etno_b}")
    _report("criterion 4d (at 35 m EUNO delivers at least ETNO's bytes on every node)",
            ok, "; ".join(details))


def test_criterion_5_energy_ledger(fig_runs, oscillation_runs):
    records = [m for m, _ in fig_runs.values()] + list(oscillation_runs)
    worst_rel = 0.0
    bounds_ok = True
    for metrics in records:
        capacity = metrics.config["battery_capacity_j"]
        for nm in metrics.nodes.values():
            expected = nm.initial_j + nm.harvested_j - nm.consumed_j
            rel = abs(nm.remaining_j - expected) / max(capacity, 1e-12)
            worst_rel = max(worst_rel, rel)
            bounds_ok = bounds_ok and all(0.0 <= row.remaining_j <= capacity for row in nm.rows)
    _report("criterion 5 (ledger within 1e-9 relative, bounds respected)",
            worst_rel <= 1e-9 and bounds_ok,
            f"worst relative imbalance {worst_rel:.2e} over {len(records)} runs")


def test_criterion_6_optimizer_properties(euno_call):
    rng = random.Random(20240601)
    # Sleep-guard dominance over 10^4 random observations below the threshold.
    guard_ok = True
    for _ in range(10_000):
        current = rng.choice([Modality.OWC, Modality.BLE])
        actions = action_set(current)
        call = euno_call(
            f_r=rng.uniform(0.0, W.f_c - 1e-9), current=current,
            energies={a: rng.uniform(0.0, 8.0) for a in actions},
            rates={a: rng.uniform(0.0, 400.0) for a in actions},
            p_int=rng.random(), sample=rng.uniform(0, 80),
            baseline=rng.uniform(0, 80))
        guard_ok = guard_ok and euno_select(*call).mode is Mode.SLEEP

    # Argmax invariance under common positive scaling of the sub-utilities.
    scale_ok = True
    for _ in range(500):
        comps = {a: UtilityBreakdown(rng.uniform(-0.1, 4.0), rng.random(),
                                     rng.random(), rng.random())
                 for a in action_set(Modality.OWC)}
        f_r = rng.uniform(W.f_c, 1.0)
        factor = rng.uniform(1e-3, 1e3)

        def best(scale):
            scored = {a: total_utility(UtilityBreakdown(
                c.modality * scale, c.screen * scale, c.localization * scale,
                c.energy * scale), W, f_r) for a, c in comps.items()}
            return max(scored, key=lambda a: (scored[a], a[0].value, a[1].value))
        scale_ok = scale_ok and best(1.0) == best(factor)

    # Energy weight monotone non-increasing in the remaining fraction.
    grid = [i / 1000 for i in range(1001)]
    weights_seq = [energy_weight(f, W.f_c) for f in grid]
    mono_ok = all(a >= b for a, b in zip(weights_seq, weights_seq[1:]))

    # Unit examples of the closed-form pieces, exact.
    keys = [(mode, Modality.OWC) for mode in Mode]
    rows = action_rows(dict.fromkeys(keys, 0.0), dict.fromkeys(keys, 0.0))
    exact_ok = (
        energy_weight(0.6, 0.2) == pytest.approx(0.5)
        and modality_utility(1.0, ModalityScores(1, 0, 1, 0, 0), W) == pytest.approx(4.0)
        and modality_utility(0.0, ModalityScores(0, 1, 0, 1, 1), W) == pytest.approx(1.7)
        and screen_utility(rows[Mode.PERFORMANCE, Modality.OWC], 0.9, 0.5, 1.0) == 1.0
        and screen_utility(rows[Mode.CONSERVATION, Modality.OWC], 0.1, 0.5, 1.0) == 1.0
        and screen_utility(rows[Mode.SLEEP, Modality.OWC], 0.9, 0.5, 1.0) == 0.0
        and localization_utility(rows[Mode.PERFORMANCE, Modality.OWC], 0.5, 0.5, 1.0) == 0.0
        and ewma_update(10.0, 20.0, 0.5) == 15.0
        and mobility_probability(10.0, 15.0, 1.0, 3.0) == pytest.approx(0.88079707797788)
        and energy_utility(2.0, 8.0) == pytest.approx(0.75)
        and total_utility(UtilityBreakdown(4.0, 1.0, 1.0, 0.0), W, 1.0) == pytest.approx(3.73)
    )
    _report("criterion 6 (optimizer properties)",
            guard_ok and scale_ok and mono_ok and exact_ok,
            f"guard 10^4 ok={guard_ok}, scaling ok={scale_ok}, "
            f"p_E monotone={mono_ok}, unit examples={exact_ok}")


def test_criterion_7_oscillation_damping(oscillation_runs):
    protected, free = oscillation_runs
    with_penalty = protected.node(1).modality_switches
    without_penalty = free.node(1).modality_switches
    _report("criterion 7 (switch penalty strictly reduces modality switches)",
            with_penalty < without_penalty,
            f"{with_penalty} switches with p_ch=0.1 vs {without_penalty} with p_ch=0")


def test_criterion_8_codec():
    rng = random.Random(0xC0DEC)
    roundtrip_ok = True
    for _ in range(10_000):
        frame = VlcFrame(src=rng.randrange(256), dst=rng.randrange(256),
                         payload_type=rng.randrange(256),
                         payload=bytes(rng.randrange(256)
                                       for _ in range(rng.randrange(17))))
        roundtrip_ok = roundtrip_ok and decode_vlc_chunks(encode_vlc_frame(frame)) == frame

    stream = encode_vlc_frame(VlcFrame(src=7, dst=9, payload_type=2,
                                       payload=b"acceptance"))
    rejected = 0
    for bit in range(192):
        corrupted = list(stream.chunks)
        corrupted[bit // 32] ^= 1 << (31 - bit % 32)
        try:
            decode_vlc_chunks(ChunkStream(chunks=tuple(corrupted)))
        except FrameCodecError:
            rejected += 1
    _report("criterion 8 (codec round-trip and corruption detection)",
            roundtrip_ok and rejected == 192,
            f"10^4 round-trips ok={roundtrip_ok}, {rejected}/192 bit flips rejected")


def test_criterion_9_determinism(tmp_path):
    scenario = load_scenario(preset_path("paper_fig11b"))
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    write_traces(run(scenario), dir_a)
    write_traces(run(scenario), dir_b)
    names = sorted(p.name for p in dir_a.iterdir())
    identical = all((dir_a / n).read_bytes() == (dir_b / n).read_bytes()
                    for n in names)
    _report("criterion 9 (byte-identical reruns)", identical,
            f"{len(names)} files compared: {names}")


# Every pinned run by name, and tests/data/digest_runs.txt's line of each.
RUNS = digest_runs.runs()
PINNED = (digest_runs.HERE / "digest_runs.txt").read_text().splitlines()
PINNED_LINES = {line.split("  ")[1]: line for line in PINNED}


@pytest.mark.parametrize("name, scenario", [
    pytest.param(name, scenario, id=name) for name, scenario in RUNS])
def test_run_outputs_pinned(name, scenario):
    # Every run of tests/data/digest_runs.py: the six presets, the
    # acceptance sweep, each `.cfg` in tests/data and the seeded draws. Each
    # line holds the digest of every output of its run and the run's
    # integer outcome, and only a deliberate model change may move it;
    # digest_runs.py prints the lines that regenerate digest_runs.txt.
    got, pinned = digest_runs.line(name, scenario), PINNED_LINES.get(name)
    _report(f"criterion 9 ({name} outputs unchanged)", got == pinned,
            f"line {got}, pinned {pinned or 'none'}")


def test_pin_file_names_every_run_once_in_order():
    # A duplicated line, or one whose run left `runs()`, would pass each
    # run's own case above.
    pinned, names = [line.split("  ")[1] for line in PINNED], [name for name, _ in RUNS]
    _report("criterion 9 (pin file names each run once, in order)", pinned == names,
            f"{len(pinned)} lines for {len(names)} runs; unpinned "
            f"{sorted(set(names) - set(pinned))}, orphaned {sorted(set(pinned) - set(names))}")
