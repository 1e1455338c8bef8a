"""Training classifiers from multiple weak label sources with
transition-matrix loss correction."""

from .datagen import build_multisource, generate_blobs
from .estimation import estimate_per_source, train_baseline
from .harness import ExperimentConfig, WeakSource, load_config, run_experiment, write_run_dir
from .labelspace import SourceSpec, TemplateKind, identity_matrix, make_template
from .losses import LossSpec

__version__ = "0.1.0"
