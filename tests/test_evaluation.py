import pytest

from entropykf.evaluation import (EvaluationError, GroundTruth, check_match_window, evaluate,
                                  load_ground_truth, match_keyframes)
from entropykf.ingest import SourceSpec
from entropykf.pipeline import ConfigError, PipelineConfig

# Reference count table: per video, (total frames, manual key-frames) and the
# (identified, redundant, missing) triples for both algorithms, with the
# published deviation each pair of missing/manual must reproduce.
REFERENCE_ROWS = [
    # video, total, manual, (ed triple), ed deviation, (proposed triple), proposed deviation
    ("english news", 3775, 22, (14, 0, 8), 0.37, (23, 3, 2), 0.09),
    ("star trek", 2001, 29, (21, 3, 11), 0.38, (28, 0, 1), 0.03),
    ("lotr trailer", 4563, 119, (199, 101, 21), 0.17, (109, 7, 17), 0.14),
    ("lotr movie", 4002, 67, (45, 0, 22), 0.33, (85, 24, 6), 0.08),
    ("hindi news", 2184, 36, (17, 3, 22), 0.61, (28, 9, 17), 0.47),
]


class TestGroundTruth:
    def test_valid(self):
        gt = GroundTruth(keyframe_indices=(3, 7, 9), total_frames=10)
        assert gt.keyframe_indices == (3, 7, 9)

    def test_rejects_unsorted_or_duplicate(self):
        with pytest.raises(EvaluationError):
            GroundTruth(keyframe_indices=(7, 3), total_frames=10)
        with pytest.raises(EvaluationError):
            GroundTruth(keyframe_indices=(3, 3), total_frames=10)

    def test_rejects_out_of_range(self):
        with pytest.raises(EvaluationError):
            GroundTruth(keyframe_indices=(10,), total_frames=10)
        with pytest.raises(EvaluationError, match="-3 is outside the video"):
            GroundTruth(keyframe_indices=(-3, 4), total_frames=10)


class TestLoadGroundTruth:
    def test_parses_header_comments_and_order(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("# human picks\ntotal_frames=100\n40  # mid shot\n7\n93\n\n")
        gt = load_ground_truth(path)
        assert gt.total_frames == 100
        assert gt.keyframe_indices == (7, 40, 93)

    def test_missing_header_errors(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("1\n2\n")
        with pytest.raises(EvaluationError, match="total_frames"):
            load_ground_truth(path)

    def test_duplicate_indices_error(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("total_frames=10\n3\n3\n")
        with pytest.raises(EvaluationError, match="duplicate"):
            load_ground_truth(path)

    def test_garbage_line_errors(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("total_frames=10\nthree\n")
        with pytest.raises(EvaluationError, match="gt.txt:2"):
            load_ground_truth(path)

    def test_second_header_errors(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("total_frames=10\n3\ntotal_frames=20\n")
        with pytest.raises(EvaluationError, match="gt.txt:3: a second 'total_frames' line"):
            load_ground_truth(path)

    def test_header_key_is_exact(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("total_framesXYZ=10\n3\n")
        with pytest.raises(EvaluationError, match="gt.txt:1: expected a frame index"):
            load_ground_truth(path)

    @pytest.mark.parametrize("text,lineno", [("total_frames=20\n1_0\n", 2),
                                             ("total_frames=20\n+5\n", 2),
                                             ("total_frames=20\n\u0663\n", 2),
                                             ("total_frames=1_0\n5\n", 1)])
    def test_numbers_are_plain_ascii_decimals(self, tmp_path, text, lineno):
        # int() would read each of these as a number
        path = tmp_path / "gt.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(EvaluationError, match=f"gt.txt:{lineno}: expected a frame index"):
            load_ground_truth(path)

    def test_missing_file_errors(self, tmp_path):
        with pytest.raises(EvaluationError):
            load_ground_truth(tmp_path / "absent.txt")

    def test_negative_index_is_outside_the_video(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("total_frames=5\n-3\n2\n")
        with pytest.raises(EvaluationError, match="-3 is outside the video of 5 frames"):
            load_ground_truth(path)

    def test_undecodable_file_errors(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_bytes(b"\xff\xfe total_frames=5\n")
        with pytest.raises(EvaluationError, match="gt.txt"):
            load_ground_truth(path)


class TestMatchKeyframes:
    @pytest.mark.parametrize("window", [-1, -12])
    def test_negative_window_is_refused_alike_by_match_and_config(self, window, tmp_path):
        message = f"^match_window must be non-negative, got {window}$"
        with pytest.raises(ValueError, match=message):
            check_match_window(window)
        gt = GroundTruth(keyframe_indices=(5,), total_frames=30)
        with pytest.raises(ValueError, match=message):
            match_keyframes([5], gt, window=window)
        spec = SourceSpec(kind="raw", path=str(tmp_path / "v.raw"), width=16, height=16)
        with pytest.raises(ConfigError, match=message):
            PipelineConfig(source=spec, output_dir=tmp_path, match_window=window).validate()

    def test_exact_match_window_zero(self):
        gt = GroundTruth(keyframe_indices=(5, 10, 20), total_frames=30)
        m = match_keyframes([5, 10, 20], gt, window=0)
        assert m.matched == ((5, 5), (10, 10), (20, 20))
        assert m.redundant == ()
        assert m.missing == ()

    def test_no_detections_all_missing(self):
        gt = GroundTruth(keyframe_indices=(5, 10), total_frames=30)
        m = match_keyframes([], gt, window=12)
        assert m.missing == (5, 10)
        assert m.redundant == ()

    def test_nearest_unclaimed_wins(self):
        # 104 is 4 frames away from 100, 95 is 5 away: the nearer one matches
        gt = GroundTruth(keyframe_indices=(100,), total_frames=200)
        m = match_keyframes([95, 104], gt, window=12)
        assert m.matched == ((100, 104),)
        assert m.redundant == (95,)

    def test_distance_tie_prefers_earlier_detection(self):
        gt = GroundTruth(keyframe_indices=(100,), total_frames=200)
        m = match_keyframes([97, 103], gt, window=12)
        assert m.matched == ((100, 97),)

    def test_one_to_one_claiming(self):
        gt = GroundTruth(keyframe_indices=(10, 12), total_frames=30)
        m = match_keyframes([11], gt, window=3)
        assert m.matched == ((10, 11),)
        assert m.missing == (12,)

    def test_window_monotonicity(self):
        import numpy as np
        rng = np.random.default_rng(307)
        for _ in range(50):
            total = 500
            gt_idx = tuple(sorted({int(v) for v in rng.integers(0, total, 8)}))
            if not gt_idx:
                continue
            gt = GroundTruth(keyframe_indices=gt_idx, total_frames=total)
            detected = sorted({int(v) for v in rng.integers(0, total, 10)})
            previous = None
            for window in (0, 2, 5, 10, 25):
                missing = len(match_keyframes(detected, gt, window).missing)
                if previous is not None:
                    assert missing <= previous
                previous = missing


class TestMetrics:
    def test_table_row_english_news(self):
        gt = GroundTruth(keyframe_indices=tuple(range(22)), total_frames=3775)
        report = evaluate(list(range(14)), gt, window=0)
        assert report.missing == 8
        assert report.deviation == pytest.approx(8 / 22)
        assert abs(report.deviation - 0.37) <= 0.01

    def test_compactness_reference_ratio(self):
        gt = GroundTruth(keyframe_indices=tuple(range(22)), total_frames=3775)
        report = evaluate(list(range(23)), gt, window=0)
        assert report.identified == 23
        assert report.compactness == pytest.approx(23 / 3775)
        assert report.compactness == pytest.approx(0.00609, abs=1e-5)

    def test_identified_splits_into_matched_plus_redundant(self):
        gt = GroundTruth(keyframe_indices=(10, 50), total_frames=100)
        report = evaluate([9, 48, 80], gt, window=5)
        assert report.identified == 3
        assert report.matched + report.redundant == report.identified
        assert report.matched == 2 and report.redundant == 1 and report.missing == 0

    def test_empty_ground_truth_errors(self):
        with pytest.raises(EvaluationError, match="empty ground truth"):
            GroundTruth(keyframe_indices=(), total_frames=10)

    def test_deviation_reproduces_all_published_cells(self):
        for video, total, manual, ed, ed_dev, prop, prop_dev in REFERENCE_ROWS:
            for (identified, redundant, missing), published in ((ed, ed_dev), (prop, prop_dev)):
                assert identified == (identified - redundant) + redundant
                deviation = missing / manual
                assert abs(deviation - published) <= 0.01, (video, published)
