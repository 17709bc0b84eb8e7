"""Multi-index single-scan online builds (the paper's section 6.2).

* :class:`MultiIndexBuilder` -- K indexes from one scan, SF discipline,
  each index flipping AVAILABLE as soon as its own drain completes;
* :func:`multi_build` -- discipline dispatch (SF pipeline or NSF's
  directly-maintained K-spec build) for one shared scan;
* ``python -m repro.bench multibuild`` -- the K-sweep showing one shared
  scan beating K sequential builds (:mod:`repro.multibuild.bench`).
"""

from repro.multibuild.builder import MultiIndexBuilder, multi_build

__all__ = [
    "MultiIndexBuilder",
    "multi_build",
]
