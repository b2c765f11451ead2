"""Desk-scale simulator of time-bin quantum teleportation over installed fiber.

Layers, bottom up: fock (Fock states as an occupation matrix plus
amplitudes; a mixture of pair-number branches is one state whose rows are
tagged by their photons in the BRANCH_RECORD mode, each branch normalized),
optics (passive circuits composed into one transfer matrix), sources
(thermal pair numbers, the relay's n-pair table, mode overlap), detection
(threshold detectors, Bell-state pattern filters, timing; click
probabilities come out per row, for the caller to sum per branch and
weight),
scenarios (full measurement campaigns), stability (path-length drift and the
rep-rate-tracking controller), analysis (fringe and dip fits, fidelity
bookkeeping), cli.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
