"""Deterministic fault injection outside the simulated world.

The paper's fault model (crash failures, fair-lossy channels) is the
simulator's; nothing here changes a run.  Two modules, no re-exports:

* :mod:`repro.faults.infra` -- infrastructure faults
  (``InfraFaultPlan``, installed process-wide): worker death, hung runs,
  cache corruption -- chaos for the hardened runtime (deadlines, retries
  with backoff, cache quarantine, degraded
  :class:`~repro.runtime.report.EnsembleReport`) to survive.  Invisible
  to spec digests by design.

* :mod:`repro.faults.proxy` -- wire faults (``WireFaultPlan`` driving a
  ``ChaosProxy``): a seeded TCP relay between a real client and a real
  server -- latency, throttling, partial writes, mid-frame disconnects,
  byte corruption -- chaos for the hardened serve layer (admission
  control, deadlines, checksums, journal recovery) to survive.

The runtime imports :mod:`repro.faults.infra`, which runs this file;
importing nothing here keeps asyncio (the proxy's) out of every
interpreter that only runs ensembles.  See DESIGN.md §10.
"""
