"""Desk-scale simulator of time-bin quantum teleportation over installed fiber.

Layers, bottom up: fock (Fock states as an occupation matrix plus
amplitudes), optics (passive circuits composed into one transfer matrix),
sources (downconversion pair sources, n-pair states in closed form),
detection (threshold detectors, Bell-state pattern filters, timing),
scenarios (full measurement campaigns), stability (path-length drift and the
rep-rate-tracking controller), analysis (fringe and dip fits, fidelity
bookkeeping), cli.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
