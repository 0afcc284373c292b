"""Desk-scale multi-camera scene synthesis and 2D-to-3D contrastive
pre-training: deterministic scene generation, point-to-superpixel
association, pooled region embeddings, cross-scene class prototypes with
blending, two contrastive losses with analytic gradients, and a seeded
trainer with a linear-probe evaluation."""

__version__ = "0.1.0"
