"""Bloch-band interferometry in a triangular optical lattice.

A simulation and pulse-design toolkit for ultracold atoms in an optical
lattice driven by shortcut (on/off) pulse sequences:

* :mod:`artifact.lattice` — geometry, plane-wave basis, lattice Hamiltonians;
* :mod:`artifact.dynamics` — band solutions, pulse sequences, evolution;
* :mod:`artifact.shortcut` — rotation fidelity and sequence optimization;
* :mod:`artifact.interferometer` — Ramsey / echo fringes, quasi-momentum
  ensembles, contrast and coherence extraction;
* :mod:`artifact.sequences` — reference pulse sequences;
* :mod:`artifact.cli` — reproducible command-line runs.

Import each name from its module; the package namespace holds only
``__version__``, which every run stamps into its outputs.
"""

__version__ = "0.1.0"
