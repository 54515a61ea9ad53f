"""Entropy-based video key-frame extraction.

Frame entropy classifies a shot's frames into bins (global feature), the
centre frame of each well-populated bin becomes a key-frame, and 64-segment
local entropies eliminate near-duplicate key-frames across shots.
"""

from .entropy import (dissimilarity, frame_entropy, modified_entropy,
                      segmented_entropies)
from .evaluation import (EvalReport, EvaluationError, GroundTruth, Matching,
                         evaluate, load_ground_truth, match_keyframes)
from .extraction import (Elimination, EntropyBin, KeyFrame, bin_indexed_keys,
                         dedup_detailed, select_keyframes)
from .ingest import (Frame, IngestError, SourceKind, SourceSpec, open_source,
                     read_pgm, write_pgm)
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
    "IngestError",
    "KeyFrame",
    "Matching",
    "PipelineConfig",
    "Shot",
    "SourceKind",
    "SourceSpec",
    "bin_indexed_keys",
    "correlation",
    "dedup_detailed",
    "detect_cuts",
    "dissimilarity",
    "evaluate",
    "frame_entropy",
    "load_ground_truth",
    "match_keyframes",
    "merge_short_shots",
    "modified_entropy",
    "open_source",
    "read_pgm",
    "run_pipeline",
    "segmented_entropies",
    "select_keyframes",
    "write_pgm",
    "__version__",
]
