"""Synthetic Grid'5000 testbed emulator — the reproduction's "reality".

The paper validates its predictions against *real* iperf transfers on
Grid'5000.  Without the physical testbed, this subpackage provides the
closest synthetic equivalent: a fluid network simulator with

- per-flow TCP windows (classic slow start + CUBIC congestion avoidance,
  HyStart disabled, 4 MiB maximum windows — the paper's sender tuning,
  :mod:`repro.testbed.tcp`),
- full-duplex links and realistic topologies (:mod:`repro.testbed.fluid`),
- per-cluster hardware profiles: connection/process startup overheads, NIC
  efficiency, kernel stack latency (:mod:`repro.testbed.profiles`),
- optional background cross-traffic (:mod:`repro.testbed.crosstraffic`),
- the iperf-style measurement of §V-A — every transfer started at t=0,
  completion times recorded with seeded noise
  (:mod:`repro.testbed.measurement`).

It shares **no sharing-model code** with the predictor (:mod:`repro.simgrid`):
its steady-state allocator is a per-bottleneck-link water-filling over
full-duplex capacities, its transient behaviour comes from the TCP window
ramp, and its constants are calibrated to hardware-era values, not to the
predictor's LV08 factors.  See DESIGN.md §3 and §6.
"""
