"""Grid'5000 substrate: reference API, synthetic sites, platform converter.

The paper's forecast service needs "a model of the simulated platform"
(§IV-C2) obtained by converting the Grid'5000 Reference API's
self-description into a SimGrid platform.  This subpackage provides:

- :mod:`repro.g5k.refapi` — the document model of the Reference API
  (sites → clusters → nodes with network adapters; network equipments with
  linecards and ports; backbone links),
- :mod:`repro.g5k.sites` — the synthetic description of the three sites used
  in the paper's experiments (Lyon, Nancy, Lille — §V-A), in both the
  *stable* (coarse) and *development* (detailed) API versions, plus the
  builder of the physical-truth testbed,
- :mod:`repro.g5k.converter` — the Reference-API → platform converter with
  its two variants ``g5k_test`` and ``g5k_cabinets`` (§V-A).
"""
