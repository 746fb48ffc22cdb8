"""Smoke test of the benchmark: every workload at a tiny size, in seconds.

    python3 -m pytest bench/test_bench.py -q

The sizes keep each workload's exactness conditions: the 61x61 codec
with n=5 is aligned (60 = 15 * 4) and on the pixel grid (15 divides
255), so its recompression check still has to hold byte for byte.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

SMALL = {
    "codec-1021": workloads.Codec(side=61, n=5),
    "morph-513": workloads.Morph(side=17),
    "kernel-morph-48": workloads.KernelMorph(side=8, images=2),
    "laws": workloads.Laws(suites=("quantale", "morphology")),
}


def bench(capsys, name, trace, seed=7) -> dict:
    """One smoke-sized run; returns the parsed last line of its output.

    Also checks that the run computed exactly the metrics BENCHMARK.json
    declares for it, no more and no fewer.
    """
    w = SMALL[name]
    result = run.measure(w, seed, 0, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    run.report(w, seed, 0, trace, result)
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(SMALL) == set(workloads.WORKLOADS)


def test_benchmark_json_names_and_units():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [w["name"] for w in SPEC["workloads"]] + [m["name"] for m in metrics]
    assert len(set(names)) == len(names)
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert all(UNIT.match(m["unit"]) for m in metrics)


@pytest.mark.parametrize("trace", (False, True))
@pytest.mark.parametrize("name", tuple(SMALL))
def test_metrics_match_benchmark_json(capsys, name, trace):
    line = bench(capsys, name, trace)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in declared]
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


@pytest.mark.parametrize("name", tuple(SMALL))
def test_layer_self_times_add_up_to_traced_wall(capsys, name):
    metrics = {k: v["value"] for k, v in bench(capsys, name, True)["metrics"].items()}
    layers = sum(
        v for k, v in metrics.items() if k.endswith("_s") and not k.startswith("trace.")
    )
    assert layers + metrics["trace.unspanned_s"] == pytest.approx(metrics["trace.wall_s"])
    assert 0 <= metrics["trace.unspanned_s"] < metrics["trace.wall_s"]


def test_tracer_restores_every_binding():
    mods = workloads.import_qkit()

    def bound():
        return [getattr(getattr(mods, m), a) for m, a, _ in spans.TARGETS]

    before, suites = bound(), dict(mods.suites.SUITES)
    tracer = spans.Tracer()
    tracer.install(mods)
    assert all(now is not old for now, old in zip(bound(), before))
    assert all(mods.suites.SUITES[k] is not fn for k, fn in suites.items())
    tracer.uninstall()
    assert all(now is old for now, old in zip(bound(), before))
    assert mods.suites.SUITES == suites


def _zero_pixels(path: Path) -> None:
    w, h, maxval, pixels = workloads.read_p2(path)
    path.write_text(f"P2\n{w} {h}\n{maxval}\n" + " ".join("0" * len(pixels)) + "\n")


def _corrupt_cli(argv, out):
    """Damage the output of one command the way a broken qkit might."""
    if argv[0] == "reconstruct":
        _zero_pixels(Path(argv[2]))
    elif argv[:2] == ("morph", "close"):
        _zero_pixels(Path(argv[4]))
    elif argv[:2] == ("laws", "morphology"):
        out = out.replace("PASS", "FAIL", 1)
    return out


@pytest.mark.parametrize("name", tuple(SMALL))
def test_corrupted_output_counts_as_failed(capsys, monkeypatch, name):
    real_cli, real_import = workloads.run_cli, run.import_qkit

    def run_cli(mods, argv, tracer):
        seconds, rc, out, err = real_cli(mods, argv, tracer)
        return seconds, rc, _corrupt_cli(argv, out), err

    def import_qkit():
        mods = real_import()
        direct = mods.transform.apply_direct

        def wrong_direct(p, f):
            g = direct(p, f)
            return type(g)(g.carrier, g.index, (p.carrier.top,) + g.values[1:])

        mods.transform.apply_direct = wrong_direct
        return mods

    monkeypatch.setattr(workloads, "run_cli", run_cli)
    monkeypatch.setattr(run, "import_qkit", import_qkit)
    line = bench(capsys, name, False)
    assert not line["correct"]
    assert 0 < line["failed"] < line["attempted"]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [*SPEC["command"], "--workload", "laws", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
