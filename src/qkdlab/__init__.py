"""qkdlab: a desk-scale laboratory for composable security in QKD.

The package is organised around six pieces:

* :mod:`qkdlab.quantum_core` -- dense density-operator linear algebra,
  classical-quantum states, POVM measurement, and distance measures.
* :mod:`qkdlab.security_metrics` -- correctness / robustness / secrecy
  epsilons, the canonical ideal state, accessible-information search,
  and the Ben-Or style sufficiency bound.
* :mod:`qkdlab.attack_lab` -- the basis-encoded parity counterexample:
  a key whose adversary register has fully mixed marginals, and from
  which per-qubit (product) measurements learn at most 2^-n bits, but
  which leaks a bit with certainty once used as a one-time pad.  A joint
  measurement of the register learns exactly 1/2 bit, so its accessible
  information is not small either.
* :mod:`qkdlab.keystream` -- epsilon budgeting for an unbounded
  authenticated key stream, plus an exact bit-accounting simulator.
* :mod:`qkdlab.composition_harness` -- real-vs-ideal distinguisher
  experiments, hybrid-argument verification, and a textbook-RSA
  malleability demo as a classical contrast.
* :mod:`qkdlab.cli` -- seeded, reproducible command-line entry points.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
