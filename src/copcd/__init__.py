"""Unsupervised change detection for heterogeneous image pairs.

The pipeline learns the joint distribution of cross-modality superpixel
features with a data-driven Gaussian/Clayton copula mixture, scores each
superpixel with a copula log-likelihood statistic, and clusters the fused
difference map into a binary change map.
"""

from .copula import CopulaMixtureModel
from .dependence import kendall_tau
from .metrics import MetricsReport, score
from .pipeline import PipelineConfig, run_detect
from .raster import Raster, load_raster, save_raster
from .segmentation import SegmentationMap, extract_features, slic
from .synth import SynthConfig, generate_pair
from .translate import translate_baseline

__all__ = [
    "CopulaMixtureModel",
    "kendall_tau",
    "MetricsReport",
    "score",
    "PipelineConfig",
    "run_detect",
    "Raster",
    "load_raster",
    "save_raster",
    "SegmentationMap",
    "extract_features",
    "slic",
    "SynthConfig",
    "generate_pair",
    "translate_baseline",
]
