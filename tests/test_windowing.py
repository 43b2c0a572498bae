"""Window planning and decision stitching."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from windowseg.core import CONTINUE, SPLIT, SegmentationLabels
from windowseg.windowing import Window, WindowConfig, plan_windows, stitch


@st.composite
def window_configs(draw):
    size = draw(st.integers(1, 50))
    left = draw(st.integers(0, size - 1))
    right = draw(st.integers(0, size - 1 - left))
    return WindowConfig(size=size, left=left, right=right)


class TestConfig:
    def test_defaults(self):
        cfg = WindowConfig()
        assert (cfg.size, cfg.left, cfg.right) == (40, 5, 5)
        assert cfg.stride == 30

    def test_context_must_fit(self):
        with pytest.raises(ValueError):
            WindowConfig(size=10, left=5, right=5)

    def test_negative_context(self):
        with pytest.raises(ValueError):
            WindowConfig(size=10, left=-1)

    def test_zero_size(self):
        with pytest.raises(ValueError):
            WindowConfig(size=0)


class TestWindow:
    def test_nesting_enforced(self):
        with pytest.raises(ValueError):
            Window(5, 10, 4, 10)
        with pytest.raises(ValueError):
            Window(5, 10, 6, 6)

    def test_slice_and_local_range(self):
        win = Window(2, 6, 3, 5)
        assert win.slice("abcdefgh") == ("c", "d", "e", "f")
        local = win.slice("abcdefgh")[win.adopt_start - win.start:win.adopt_end - win.start]
        assert local == ("d", "e")


class TestPlan:
    def test_empty(self):
        assert plan_windows(0, WindowConfig()) == []

    def test_single_window_when_short(self):
        wins = plan_windows(12, WindowConfig(40, 5, 5))
        assert wins == [Window(0, 12, 0, 12)]

    def test_default_config_on_100(self):
        wins = plan_windows(100, WindowConfig(40, 5, 5))
        assert wins == [
            Window(0, 40, 0, 35),
            Window(30, 70, 35, 65),
            Window(60, 100, 65, 100),
        ]

    def test_exact_boundary_omits_empty_adoption(self):
        # n lands exactly on a window edge: the last window absorbs it.
        wins = plan_windows(70, WindowConfig(40, 5, 5))
        assert wins[-1] == Window(30, 70, 35, 70)

    @given(st.integers(1, 400), window_configs())
    def test_adopted_spans_tile(self, n, cfg):
        wins = plan_windows(n, cfg)
        cursor = 0
        for win in wins:
            assert win.adopt_start == cursor
            assert win.adopt_start < win.adopt_end
            cursor = win.adopt_end
        assert cursor == n

    @given(st.integers(1, 400), window_configs())
    def test_windows_advance_by_stride(self, n, cfg):
        wins = plan_windows(n, cfg)
        for k, win in enumerate(wins):
            assert win.start == k * cfg.stride
            assert win.end - win.start <= cfg.size

    @given(st.integers(1, 400), window_configs())
    def test_context_coverage(self, n, cfg):
        # Every adopted position sees min(left, t) left and
        # min(right, n-1-t) right context inside its window.
        for win in plan_windows(n, cfg):
            for t in (win.adopt_start, win.adopt_end - 1):
                assert t - win.start >= min(cfg.left, t)
                assert win.end - 1 - t >= min(cfg.right, n - 1 - t)


class TestStitch:
    def test_empty(self):
        assert stitch([], []) == SegmentationLabels(())

    @given(st.integers(1, 300), window_configs(), st.data())
    def test_reconstructs_document(self, n, cfg, data):
        bits = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        doc = SegmentationLabels(
            tuple(SPLIT if (i == 0 or b) else CONTINUE for i, b in enumerate(bits))
        )
        wins = plan_windows(n, cfg)
        per_window = [
            SegmentationLabels(doc.decisions[w.start : w.end]) for w in wins
        ]
        assert stitch(wins, per_window) == doc

    def test_position_zero_forced(self):
        wins = plan_windows(3, WindowConfig(3, 0, 0))
        labels = [SegmentationLabels((CONTINUE, CONTINUE, CONTINUE))]
        assert stitch(wins, labels)[0] is SPLIT

    def test_context_decisions_discarded(self):
        wins = plan_windows(100, WindowConfig(40, 5, 5))
        noisy = []
        for w in wins:
            dec = [CONTINUE] * len(w)
            for i in range(len(w)):  # garbage outside the adopted span
                if (w.start + i) not in range(w.adopt_start, w.adopt_end):
                    dec[i] = SPLIT
            noisy.append(SegmentationLabels(tuple(dec)))
        out = stitch(wins, noisy)
        assert out.split_positions() == (0,)

    def test_length_mismatch(self):
        wins = plan_windows(10, WindowConfig(10, 0, 0))
        with pytest.raises(ValueError):
            stitch(wins, [SegmentationLabels((SPLIT,))])

    def test_tiling_violation(self):
        wins = [Window(0, 5, 0, 4), Window(5, 10, 6, 10)]
        labels = [SegmentationLabels((SPLIT,) * 5)] * 2
        with pytest.raises(ValueError):
            stitch(wins, labels)

    def test_window_count_mismatch(self):
        with pytest.raises(ValueError):
            stitch([Window(0, 2, 0, 2)], [])
