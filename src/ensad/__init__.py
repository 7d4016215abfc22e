"""Translation-ensemble adapter for cross-lingual conditional generation.

A small attention module fuses a source sentence embedding with embeddings
of its translations into a single conditioning vector, trained jointly
with a toy conditional GAN under adversarial and contrastive losses. All
numerics are hand-derived numpy, with LAPACK for the eigendecompositions;
runs are deterministic given (dataset, configs, seed).
"""
