"""Beam-wander memory modelling for free-space optical links.

Submodules:
    theory   Closed-form turbulence quantities (wander variance, beam sizes,
             Greenwood frequency).
    arma     ARMA(p,q) representation, simulation, conditional least-squares
             fitting, order selection and residual diagnostics.
    channel  Wander-to-intensity mapping, memoryless fading baseline and
             OAM crosstalk spectra.
    stats    ACF/PACF, radial variance, run-length distributions, empirical
             PDFs and the scintillation index.
    ingest   Centroid extraction from intensity frames, trace file I/O and
             the CSV writer and reader every file goes through.
    cli      Batch command-line pipeline.
"""

__version__ = "0.1.0"
