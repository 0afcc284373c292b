"""Desk-scale multi-camera scene synthesis and 2D-to-3D contrastive
pre-training: deterministic scene generation, point-to-superpixel
association, pooled region embeddings, cross-scene class prototypes with
blending, two contrastive losses with analytic gradients, and a seeded
trainer with a linear-probe evaluation."""

# numpy imports these on first use, and a SIGINT or SIGTERM that lands inside
# that import can be lost; every command uses one or both, so import them now
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

__version__ = "0.1.0"
