"""Qudit graph states from spin-qudit emitters.

Desk-scale simulation and analysis toolkit: spin Hamiltonian spectra,
time-bin emission protocols, qudit graph-state verification, type-II fusion
bookkeeping, and cavity loss/timing budgets.
"""

__version__ = "0.1.0"
