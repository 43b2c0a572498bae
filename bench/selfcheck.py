"""Tiny-size self-check of the benchmark.

    python3 bench/selfcheck.py

Runs every workload briefly on the tiny corpus, untraced and traced, and
checks that the last line of each run is the result object with exactly
the metric names and units that BENCHMARK.json declares, and that the
traced run reads non-zero for the layers each workload exercises (a
wrapper that no longer sees its calls would read zero).  Then it tampers
with a stored output digest and checks that the next run reports the
document as failed.  Last, it checks that a run exits non-zero without a
result in a directory holding only the benchmark (no library sources),
and in a copy of the checkout whose library lacks a function the tracer
wraps.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["bench/run.py", "--size", "tiny", "--seconds", "1"]
SEED = 7
DECODING = ("features.static_features_s", "features.static_features_calls_per_token",
            "features.token_reuse_share", "features.train_s", "features.load_model_s",
            "autoregressive.scorer_init_s", "autoregressive.logprobs_calls",
            "automaton.build_s", "automaton.search_s", "automaton.score_calls_per_window",
            "pipeline.segment_tokens_s", "pipeline.window_ms_p99", "windowing.plan_windows_s",
            "windowing.stitch_s", "windowing.windows")
# Per-layer metrics that must read non-zero in each workload's traced run.
EXERCISED = {
    "greedy-zipf": DECODING,
    "beam16-zipf": DECODING,
    "external-corrupt": ("external.generate_calls", "external.generate_ms_p50",
                         "align.project_calls", "align.project_s", "align.levenshtein_s",
                         "pipeline.segment_tokens_s", "pipeline.window_ms_p99",
                         "windowing.windows"),
    "oracle-long": ("align.levenshtein_s", "align.levenshtein_peak_mb", "rules.derive_labels_s",
                    "align.project_calls", "align.project_s", "pipeline.window_ms_p99"),
}


def run(cwd: Path, *args: str) -> tuple[int, list[str], str]:
    proc = subprocess.run([sys.executable, *RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=180)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def check_result(lines: list[str], declared: dict[str, str],
                 exercised: tuple[str, ...] = ()) -> list[str]:
    """Problems with the last line of a run, against the declared metrics.

    Each metric named in ``exercised`` must read non-zero.
    """
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return [f"last line is not JSON: {lines[-1][:80]!r}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        problems.append(f"metric names differ: missing {sorted(set(declared) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(declared))}")
    for name, entry in metrics.items():
        if name in declared and entry.get("unit") != declared[name]:
            problems.append(f"{name}: unit {entry.get('unit')!r} != {declared[name]!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
        elif name in exercised and value == 0:
            problems.append(f"{name} reads 0, but this workload exercises it")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0

    def report(label: str, problems: list[str]) -> None:
        nonlocal failures
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {label}" + "".join(f"\n     {p}" for p in problems))

    out = ROOT / ".bench_out"
    for workload in (w["name"] for w in spec["workloads"]):
        (out / f"digests-{workload}-seed{SEED}-tiny.json").unlink(missing_ok=True)
        for trace in (0, 1):
            code, lines, _ = run(ROOT, "--workload", workload, "--seed", str(SEED),
                                 "--trace", str(trace))
            problems = check_result(lines, declared[trace],
                                    EXERCISED[workload] if trace else ())
            if code != 0:
                problems.insert(0, f"exit code {code}")
            report(f"{workload} trace={trace}", problems)

    # A stored digest that no longer matches the output is a failed document.
    workload = spec["workloads"][0]["name"]
    digest_file = out / f"digests-{workload}-seed{SEED}-tiny.json"
    stored = json.loads(digest_file.read_text(encoding="utf-8"))
    stored["docs"]["0"] = "0" * 64
    digest_file.write_text(json.dumps(stored), encoding="utf-8")
    _, lines, _ = run(ROOT, "--workload", workload, "--seed", str(SEED))
    result = json.loads(lines[-1]) if lines else {}
    tampered_ok = result.get("correct") is False and result.get("failed", 0) >= 1
    report("tampered digest is reported as a failure",
           [] if tampered_ok else [f"result {result}"])
    digest_file.unlink()

    # Without the library sources the run must fail without printing a result.
    bare = out / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, lines, _ = run(bare, "--workload", workload, "--seed", str(SEED))
    shutil.rmtree(bare)
    report("bare directory exits non-zero without a result",
           [] if code != 0 and not any(line.startswith("{") for line in lines)
           else [f"exit code {code}, output {lines[-1:]}"])

    # A layer function the tracer wraps that has left the library fails the
    # traced run instead of reading zero.
    renamed = out / "renamed"
    shutil.rmtree(renamed, ignore_errors=True)
    for path in [*spec["paths"], "src"]:
        shutil.copytree(ROOT / path, renamed / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    with open(renamed / "src" / "windowseg" / "pipeline.py", "a", encoding="utf-8") as fh:
        fh.write("\nstitch_windows = stitch\ndel stitch\n")
    code, lines, err = run(renamed, "--workload", workload, "--seed", str(SEED), "--trace", "1")
    shutil.rmtree(renamed)
    report("missing trace target fails the traced run",
           [] if code != 0 and not any(line.startswith("{") for line in lines)
           and "MissingTarget" in err else [f"exit code {code}, output {lines[-1:]}"])

    print("PASS" if not failures else f"FAIL ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
