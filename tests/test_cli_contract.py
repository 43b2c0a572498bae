"""The CLI contract as one property, run in-process through ``cli.main``.

Whatever the files and numbers, a run exits 0-5; a failed run prints an
``error:`` line (or, for bad usage, argparse's usage message) and no
traceback; no numpy warning is printed; and no staged ``.<name>.tmp``
file is left behind.
"""

import contextlib
import io
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from windowseg.cli import main
from windowseg.core import DEFAULT_DELIMITER
from windowseg.segmenters.features import FeatureConfig, FeatureModel, save_model

UNREADABLE = Path("/proc/self/mem")  # a regular file whose read fails (EIO)

# How a path argument is drawn.  "good" content depends on the argument's
# role; every other kind is the same bytes whatever the role.
KINDS = [
    "good", "missing", "directory", "empty", "not-utf8", "truncated-model",
    "wrong-count-labels", "delimiter-token", "overflow-model",
] + (["unreadable"] if UNREADABLE.exists() else [])

TINY = FeatureModel.zeros(
    FeatureConfig(hash_dims=64, ngram_orders=(2,), context_radius=1, history=1)
)
# Every weight is finite, so the model loads, but sums of them overflow to
# inf - inf = NaN while decoding.
OVERFLOW = FeatureModel(
    TINY.config, np.where(np.arange(TINY.config.hash_dims) % 2 == 0, 1e308, -1e308)
)

GOOD = {
    "transcript": b"alpha bravo charlie delta echo\n",
    "punctuated": b"Alpha bravo. Charlie delta echo!\n",
    "labels": b"doc\t5\t2\n",
    "config": b'{"segment_len": 2}\n',
    "abbreviations": b"mr.\ndr.\n",
}
BAD = {
    "empty": b"",
    "not-utf8": b"alpha \xff bravo\n",
    "wrong-count-labels": b"doc\t2\t1\n",
    "delimiter-token": f"alpha b{DEFAULT_DELIMITER}c delta echo\n".encode(),
}


def path(role):
    """A path argument: materialized by ``make_file`` as one drawn kind."""
    return st.sampled_from(KINDS).map(lambda kind: ("path", role, kind))


def number(bound):
    """A numeric flag value: 0, -1, NaN, inf or a bounded large value."""
    return st.sampled_from(["0", "-1", "nan", "inf", str(bound)])


def maybe(flag, values=None):
    """``[flag, value]``, ``[flag]`` when ``values`` is None, or nothing."""
    present = st.just([flag]) if values is None else values.map(lambda v: [flag, v])
    return st.one_of(st.just([]), present)


def one_number(*flags):
    """Nothing, or one of ``flags`` (name, bound) with a drawn ``number``.

    At most one, since argparse rejects NaN and inf for an int flag, and
    more would leave few examples that get past the parser.
    """
    drawn = st.sampled_from(flags).flatmap(
        lambda flag: number(flag[1]).map(lambda value: [flag[0], value])
    )
    return st.one_of(st.just([]), drawn)


WINDOW_FLAGS = [("--window-size", 10**6), ("--window-left", 10**6),
                ("--window-right", 10**6), ("--workers", 8)]

COMMANDS = {
    "segment-fixed": [
        st.just(["segment"]), path("transcript"),
        st.just(["--segmenter", "fixed", "--out-dir", ("out", "")]),
        maybe("--config", path("config")), maybe("--no-normalize"),
        one_number(("--segment-len", 10**9), *WINDOW_FLAGS),
    ],
    "segment-autoregressive": [
        st.just(["segment"]), path("transcript"),
        st.just(["--segmenter", "autoregressive", "--out-dir", ("out", ""), "--model"]),
        path("model"), maybe("--strategy", st.sampled_from(["greedy", "beam:2", "exact"])),
        maybe("--no-normalize"), one_number(*WINDOW_FLAGS),
    ],
    # The fixed --epochs and --hash-dims keep training small; a drawn
    # value for either comes later on the command line and wins.
    "train": [
        st.just(["train"]), path("transcript"), st.just(["--labels"]), path("labels"),
        st.just(["--out", ("out", "m.bin"), "--epochs", "1", "--hash-dims", "1024"]),
        maybe("--warm-start", path("model")),
        one_number(("--epochs", 3), ("--hash-dims", 2**16), ("--learning-rate", 10**6),
                   ("--radius", 300), ("--history", 300)),
    ],
    "derive-labels": [
        st.just(["derive-labels"]), path("punctuated"), st.just(["--out-dir", ("out", "")]),
        maybe("--abbreviations", path("abbreviations")),
    ],
    "oracle": [
        st.just(["oracle", "--references"]), path("punctuated"), st.just(["--asr"]),
        path("transcript"), st.just(["--out", ("out", "o.tsv")]),
        maybe("--abbreviations", path("abbreviations")), maybe("--no-normalize"),
    ],
    "eval": [
        st.just(["eval", "--predicted"]), path("labels"), st.just(["--reference"]),
        path("labels"), maybe("--format", st.just("json")),
    ],
}


@st.composite
def invocations(draw):
    """An argv plan: strings, ``("path", role, kind)`` and ``("out", name)`` items."""
    parts = [draw(part) for part in COMMANDS[draw(st.sampled_from(sorted(COMMANDS)))]]
    plan = []
    for part in parts:
        plan.extend(part if isinstance(part, list) else [part])
    return plan


def make_file(root: Path, index: int, role: str, kind: str) -> Path:
    """The file for one path argument, in a directory of its own, stem ``doc``."""
    directory = root / f"{role}{index}"
    directory.mkdir()
    target = directory / ("doc.bin" if role == "model" else "doc.txt")
    if kind == "good" and role == "model":
        save_model(TINY, target)
    elif kind == "overflow-model":
        save_model(OVERFLOW, target)
    elif kind == "truncated-model":
        save_model(TINY, target)
        target.write_bytes(target.read_bytes()[:11])
    elif kind == "good":
        target.write_bytes(GOOD[role])
    elif kind == "directory":
        target.mkdir()
    elif kind == "unreadable":
        os.symlink(UNREADABLE, target)
    elif kind != "missing":
        target.write_bytes(BAD[kind])
    return target


# In-process, pytest captures a warning instead of letting it reach the
# stderr read below, so a leaking numpy warning must fail the run here.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(plan=invocations())
@example(plan=[
    "segment", ("path", "transcript", "good"),
    "--segmenter", "autoregressive", "--out-dir", ("out", ""), "--model",
    ("path", "model", "overflow-model"),
])
@example(plan=[
    "train", ("path", "transcript", "good"), "--labels", ("path", "labels", "good"),
    "--out", ("out", "m.bin"), "--epochs", "1", "--hash-dims", "1024",
    "--warm-start", ("path", "model", "overflow-model"),
])
def test_every_invocation_keeps_the_contract(tmp_path_factory, plan):
    root = tmp_path_factory.mktemp("contract")
    out = root / "out"
    argv = []
    for index, item in enumerate(plan):
        if isinstance(item, str):
            argv.append(item)
        elif item[0] == "out":
            argv.append(str(out / item[1]) if item[1] else str(out))
        else:
            argv.append(str(make_file(root, index, item[1], item[2])))
    if argv[0] in ("train", "oracle"):
        out.mkdir()

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
            assert code == 2 and "usage:" in err.getvalue()
    message = err.getvalue()

    assert code in range(6), (argv, message)
    if code != 0 and "usage:" not in message:
        assert message.startswith("error: "), (argv, message)
    assert "Traceback" not in message
    assert not list(out.rglob(".*.tmp"))
