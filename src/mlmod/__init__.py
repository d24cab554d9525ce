"""Multilayer modularity with multiple aspects.

Core pieces: the aspect-layer network model and its supra representation
(`network`), coupling strategies and resolution parameters (`params`),
the supra-modularity matrix and the modularity score (`modularity`), the recursive spectral optimizer (`mspec`), comparison
baselines (`baselines`), file formats (`io`) and bundled benchmark data
(`datasets`).
"""

from .errors import ConvergenceError, DomainError, MlmodError, ParseError
from .network import (
    Aspect,
    MultilayerNetwork,
    full_couplings,
    generate_couplings,
)
from .params import CouplingSpec, ModularityParams
from .modularity import (
    Partition,
    QualityMatrix,
    build_modularity_matrix,
    modularity,
    quality_matrix,
)
from .mspec import (
    DetectionResult,
    Division,
    mspec_detect,
)
from .baselines import mlouv, sfull_spec, smean_spec
from .datasets import build_karate_replica, load_karate
from .io import (
    load_aspect_grid,
    load_dataset,
    load_multiplex,
    load_result,
    save_multiplex,
    save_result,
)

__version__ = "0.1.0"
