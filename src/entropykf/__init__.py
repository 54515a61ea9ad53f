"""Entropy-based video key-frame extraction.

Frame entropy classifies a shot's frames into bins (global feature), the
centre frame of each well-populated bin becomes a key-frame, and 64-segment
local entropies eliminate near-duplicate key-frames across shots.
"""

from .entropy import (Histogram, dissimilarity, entropy, frame_entropy,
                      histogram, modified_entropy, segmented_entropies)
from .evaluation import (EvalReport, EvaluationError, GroundTruth, Matching,
                         evaluate, load_ground_truth, match_keyframes, metrics)
from .extraction import (Elimination, EntropyBin, KeyFrame, bin_indexed_keys,
                         dedup, dedup_detailed, select_keyframes)
from .ingest import (Frame, IngestError, SourceKind, SourceSpec, open_source,
                     read_pgm, to_grayscale, write_pgm)
from .pipeline import ConfigError, PipelineConfig, run_pipeline
from .shots import Shot, correlation, detect_cuts, merge_short_shots

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Elimination",
    "EntropyBin",
    "EvalReport",
    "EvaluationError",
    "Frame",
    "GroundTruth",
    "Histogram",
    "IngestError",
    "KeyFrame",
    "Matching",
    "PipelineConfig",
    "Shot",
    "SourceKind",
    "SourceSpec",
    "bin_indexed_keys",
    "correlation",
    "dedup",
    "dedup_detailed",
    "detect_cuts",
    "dissimilarity",
    "entropy",
    "evaluate",
    "frame_entropy",
    "histogram",
    "load_ground_truth",
    "match_keyframes",
    "merge_short_shots",
    "metrics",
    "modified_entropy",
    "open_source",
    "read_pgm",
    "run_pipeline",
    "segmented_entropies",
    "select_keyframes",
    "to_grayscale",
    "write_pgm",
    "__version__",
]
