"""Exact refined quantum invariants of plumbed 3-manifolds.

Modules:

- ``cyclo``: exact cyclotomic field arithmetic, the ground ring.
- ``category``: premodular/modular category data, axiom checks, invertible
  objects, gradings, Kirby colors.
- ``constructions``: built-in category families and derived categories
  (reduction, extension, modularization).
- ``surgery``: plumbing forests, linking matrices, exact signatures, moves
  and the transport of structures through them.
- ``structures``: spin / cohomology / Chern-vector / homology structure
  sets on surgered manifolds.
- ``invariants``: exact evaluation of colored and refined invariants.
- ``corpus``: named classics and seeded random manifold corpora.
- ``formats``: text file formats and JSON/CSV serialization.
- ``verify``: machine verification suites with witnesses.
- ``budget``: the one size limit every large request is charged against.
- ``cli``: the ``spinmod`` command line tool.
"""

__version__ = "0.1.0"
