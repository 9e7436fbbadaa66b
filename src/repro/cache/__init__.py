"""Persistent, sharded, content-addressed caching (``repro.cache``).

:class:`repro.core.backend.EvalCache`, the evaluation memo each backend
owns, deduplicates candidate evaluations *within* one backend's
lifetime; this package is the disk tier underneath its batch path, so
identical candidates are never simulated twice **across jobs,
processes, or daemon restarts** (the repair-as-a-service workload — see
``docs/service.md``).

- :class:`PersistentEvalCache` — a directory-sharded JSON payload store
  keyed by SHA-256 hex digests, with byte-budget LRU eviction and
  corruption-tolerant reads.  It stores plain JSON mappings and knows
  nothing about candidate results; the encoding of
  :class:`~repro.core.backend.CandidateResult` payloads (and the
  *context digest* that keeps entries from aliasing across configs)
  lives next to ``EvalCache`` in :mod:`repro.core.backend`.
"""

from __future__ import annotations

from .store import PersistentEvalCache

__all__ = ["PersistentEvalCache"]
