"""The paper's primary contribution: ChargeCache and the latency
mechanisms it is evaluated against.

* :class:`~repro.core.chargecache.ChargeCache` - the proposed mechanism
  (HCRAC + IIC/EC invalidation + reduced ACT timings on a hit).
* :class:`~repro.core.nuat.NUAT` - the closest prior work (Shin et al.,
  HPCA 2014): reduced timings for recently *refreshed* rows.
* :class:`~repro.core.lldram.LowLatencyDRAM` - the idealised upper
  bound (every activation uses reduced timings).
"""
