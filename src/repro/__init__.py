"""Fusion: an analytics object store optimized for query pushdown.

Reproduction of Lu, Raina, Cidon & Freedman (ASPLOS 2025).

Subpackages:

* :mod:`repro.format` — PAX columnar file format (Parquet-like).
* :mod:`repro.ec` — systematic Reed-Solomon erasure coding over GF(2^8).
* :mod:`repro.cluster` — discrete-event simulated storage cluster.
* :mod:`repro.sql` — SQL subset (SELECT/WHERE + aggregates) engine.
* :mod:`repro.core` — Fusion itself: FAC stripe construction, the
  pushdown cost model, and the Fusion / baseline object stores.
* :mod:`repro.workloads` — dataset generators and paper queries.
* :mod:`repro.bench` — per-figure/table experiment harness.
* :mod:`repro.check` — one fingerprint of a simulated run.
"""

__version__ = "1.0.0"
