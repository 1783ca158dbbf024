"""P3C+ expressed as MapReduce jobs (paper Sections 5-6).

Each module maps onto one subsection of Section 5:

- :mod:`repro.mr.histogram`    — 5.1 histogram building,
- :mod:`repro.mr.rssc`         — 5.3 Rapid Signature Support Counter,
- :mod:`repro.mr.support`      — 5.3 candidate proving jobs over the
  interval index the level-1 job packs,
- :mod:`repro.mr.core_generation` — Algorithm 1 with the multi-level
  candidate-collection heuristic (candidates are joined in the driver),
- :mod:`repro.mr.em_jobs`      — 5.4 EM, one fused MR job per iteration
  (the paper's sums + covariance pair in one centred pass),
- :mod:`repro.mr.outlier_jobs` — 5.5 OD job (the serving scorer's
  batched ``assign``) and the MVB jobs,
- :mod:`repro.mr.attribute_jobs` — 5.6 attribute inspection; its
  histogram job also takes the member extremes of 5.7 interval
  tightening,
- :mod:`repro.mr.p3c_mr`       — the full P3C+-MR driver,
- :mod:`repro.mr.light_jobs`   — the Light membership job (Section 6),
- :mod:`repro.mr.p3c_mr_light` — the P3C+-MR-Light driver (Section 6).
"""

from repro.mr.p3c_mr import P3CPlusMR, P3CPlusMRConfig, paper_plan_jobs
from repro.mr.p3c_mr_light import P3CPlusMRLight
from repro.mr.rssc import RSSC

__all__ = ["P3CPlusMR", "P3CPlusMRConfig", "P3CPlusMRLight", "RSSC", "paper_plan_jobs"]
