"""Clock-reparametrization covariance experiments for classical and quantum dynamics.

A monotone map t = T(tau) relabels the evolution clock. Evolving the
Schrödinger equation in tau with the generator T'(tau) H(T(tau)) — or the
classical equations with the Hamiltonian T'H — reproduces the conventional
evolution at the relabeled instants. This package propagates both sides,
measures their phase-invariant agreement, and checks the accompanying
identities (degree-one homogeneity of the extended Lagrangian and the
momentum constraint T' pi_T + Htilde = 0).

Import each name from its own module, e.g. ``from reclock.quantum import
propagate_t``; the package root holds only ``__version__``.
"""

__version__ = "0.1.0"
