"""framethresh: soft-thresholding in redundant frames with extreme-value
threshold rules and a seeded Monte Carlo verification harness."""

__version__ = "0.1.0"

from .core import (CoefficientVector, DimensionMismatch, ExplicitFrame, Frame,
                   FrameError, GramSummary, frame_bounds, gram_coherence_counts)
from .evt import (GumbelNorms, ThresholdSpec, cyclespin_threshold, evt_threshold,
                  gumbel_cdf, gumbel_quantile, norms_chi, norms_normal,
                  threshold_from_zn, ti_constant_c, ti_threshold,
                  universal_threshold)
from .shrink import DenoiseResult, confidence_region_contains, denoise, shrink_value
from .transforms import (CDF97, CDF97R, D4, HAAR, CycleSpinFrame, SineFrame,
                         TIWaveletFrame, WaveletBasis, WaveletFilterPair,
                         cs_distinct_count, frame_from_spec, get_filters)
