"""Extensions beyond the paper's single-node store, on the same substrate.

This package re-exports nothing; import the module you use.

* :mod:`repro.ext.replication` — replicated multi-node groups with
  Lamport/LWW conflict resolution, write-through fan-out, Merkle
  anti-entropy and ONE/QUORUM consistency (served by ``repro serve --peer``).
"""
