"""Multi-index single-scan online builds (the paper's section 6.2).

The builder is a row of :data:`repro.core.BUILDERS`
(``get_builder("multi")``, :class:`repro.core.MultiIndexBuilder`); what
lives here is its bench suite: ``python -m repro.bench multibuild``, the
K-sweep showing one shared scan beating K sequential builds
(:mod:`repro.multibuild.bench`).
"""
