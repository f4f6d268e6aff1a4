"""Flow-level network simulator (SimGrid rebuilt from scratch).

This subpackage re-implements, in pure Python, the parts of SimGrid the paper
relies on:

- a platform description model with hierarchical Autonomous Systems
  (:mod:`repro.simgrid.platform`, :mod:`repro.simgrid.routing`),
- the RTT-aware bounded max-min bandwidth-sharing solver
  (:mod:`repro.simgrid.maxmin`),
- a pluggable sharing-model layer — the CM02 / LV08 flow-level TCP network
  models with their published correction factors and the ``TCP_gamma``
  window cap, behind a named registry (:mod:`repro.simgrid.models`) —
  plus the congestion-aware time-varying ``tcp_fluid`` variant
  (:mod:`repro.simgrid.tcpfluid`),
- a discrete-event simulation kernel driving communication and computation
  activities from timers and done callbacks (:mod:`repro.simgrid.engine`,
  :mod:`repro.simgrid.activities`) — SimGrid's SimDag style, without MSG
  processes: the paper's send/receive pair per transfer (§IV-C2) is the one
  communication it amounts to (``Simulation.simulate_transfers``),
- SimGrid-flavoured XML platform input/output (:mod:`repro.simgrid.xml_io`).

The terminology (hosts, links, AS, gateways, ``SHARED``/``FATPIPE`` sharing
policies, latency/bandwidth factors, ``weight_S``) intentionally follows
SimGrid's so that the reproduction can be read side by side with the paper and
with Velho & Legrand (2009) / Bobelin et al. (2011).
"""
