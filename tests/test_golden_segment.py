"""Golden ``segment`` outputs: the bytes of every segmenter's files, pinned.

Runs ``cli.main`` in-process on three ``synth`` documents and pins the
sha256 of each ``<doc>.segments.txt`` and ``<doc>.labels.tsv`` for:
fixed; replay; the autoregressive segmenter with greedy, beam:4 and exact
search on a history-6 model trained here; and the external segmenter
against an in-process mock endpoint in rule and corrupt modes, on 1 and 3
window threads.

The golden file is regenerated only when output bytes are meant to change:

    PYTHONPATH=src:tests python tests/test_golden_segment.py tests/golden_segment.json
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from synth import make_document
from windowseg.cli import main
from windowseg.dataio import format_labels, format_transcript
from windowseg.mock_endpoint import MockEndpoint, MockEndpointConfig

GOLDEN = Path(__file__).with_name("golden_segment.json")
DOCS = ("d0", "d1", "d2")
MODEL = ["--segmenter", "autoregressive", "--model", "{model}"]
# Flags of each run; {model}, {labels}, {rule} and {corrupt} are filled in.
RUNS = {
    "fixed": ["--segmenter", "fixed", "--segment-len", "6"],
    "replay": ["--segmenter", "replay", "--replay-labels", "{labels}"],
    "greedy": [*MODEL, "--strategy", "greedy"],
    "beam4": [*MODEL, "--strategy", "beam:4"],
    "exact": [*MODEL, "--strategy", "exact"],
    **{
        f"external-{mode}-w{workers}": [
            "--segmenter", "external", "--endpoint-url", f"{{{mode}}}",
            "--workers", str(workers),
        ]
        for mode in ("rule", "corrupt")
        for workers in (1, 3)
    },
}


def _prepare(root: Path) -> dict[str, str]:
    """Write the documents and their labels, train the model; return the paths.

    The model is weak on purpose (one epoch, 256 hash dims), so that greedy,
    beam:4 and exact search each label some document differently.
    """
    rng = random.Random(23)
    docs = [make_document(rng, name, (10, 20)) for name in DOCS]
    inputs = root / "inputs"
    inputs.mkdir()
    for transcript, _ in docs:
        (inputs / f"{transcript.source_id}.txt").write_text(format_transcript(transcript))
    labels = root / "labels.tsv"
    labels.write_text(format_labels([(t.source_id, lab) for t, lab in docs]))
    model = root / "model.bin"
    rc = main([
        "train", *(str(inputs / f"{d}.txt") for d in DOCS),
        "--labels", str(labels), "--out", str(model),
        "--epochs", "1", "--hash-dims", "256", "--orders", "2,3",
        "--radius", "2", "--history", "6",
    ])
    assert rc == 0
    return {"inputs": str(inputs), "labels": str(labels), "model": str(model)}


def compute_digests(root: Path) -> dict[str, str]:
    """``run/file`` -> sha256 of that output file, for every run in RUNS."""
    paths = _prepare(root)
    digests = {}
    with MockEndpoint(MockEndpointConfig(mode="rule", period=5)) as rule, \
            MockEndpoint(MockEndpointConfig(mode="corrupt", corrupt_rate=0.5)) as corrupt:
        fill = {**paths, "rule": rule.url, "corrupt": corrupt.url}
        for run, flags in RUNS.items():
            out = root / run
            rc = main([
                "segment", *(f"{paths['inputs']}/{d}.txt" for d in DOCS),
                "--out-dir", str(out), *(f.format(**fill) for f in flags),
            ])
            assert rc == 0, run
            for path in sorted(out.iterdir()):
                digests[f"{run}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def computed(tmp_path_factory):
    return compute_digests(tmp_path_factory.mktemp("golden_segment"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_file_set_matches_golden(computed, golden):
    assert sorted(computed) == sorted(golden)
    assert len(golden) == len(RUNS) * len(DOCS) * 2


@pytest.mark.parametrize("run", list(RUNS))
def test_run_matches_golden(computed, golden, run):
    mine = {k: v for k, v in computed.items() if k.startswith(f"{run}/")}
    assert mine == {k: v for k, v in golden.items() if k.startswith(f"{run}/")}


@pytest.mark.parametrize("mode", ["rule", "corrupt"])
def test_worker_count_keeps_bytes(computed, mode):
    def files(workers):
        prefix = f"external-{mode}-w{workers}/"
        return {k[len(prefix):]: v for k, v in computed.items() if k.startswith(prefix)}

    assert files(1) == files(3)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = compute_digests(Path(tmp))
    Path(sys.argv[1]).write_text(
        json.dumps(digests, indent=0, sort_keys=True) + "\n", encoding="utf-8"
    )
