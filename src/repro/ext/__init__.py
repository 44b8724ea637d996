"""Extensions beyond the paper's single-node store, on the same substrate.

Import the module you use; this package re-exports nothing, so loading
one extension does not load its siblings.

* :mod:`repro.ext.replication` — replicated multi-node groups with
  Lamport/LWW conflict resolution, hinted handoff, Merkle anti-entropy
  and ONE/QUORUM consistency (served by ``repro serve --peer``);
* :mod:`repro.ext.cluster` — the same coordinator over
  :mod:`repro.ext.ring` consistent-hash placement;
* :mod:`repro.ext.rangestore` — ordered shielded store with verified
  range queries over a :mod:`repro.ext.skiplist` index (§7).
"""
