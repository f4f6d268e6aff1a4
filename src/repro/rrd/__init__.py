"""Round-robin database substrate.

The paper's first Pilgrim service is "a remote API for accessing RRD files
[…] hiding the complexities of these files (in particular the multiple
precisions and time-spans of round-robin archives per RRD file)" (§IV-C1).
To make that service real, this subpackage implements RRD semantics from
scratch: primary data points on a fixed step, multiple round-robin archives
with consolidation functions (AVERAGE/MIN/MAX/LAST) and xff thresholds,
counter/gauge data sources with heartbeat-based unknowns, and a fetch that
picks the most accurate archive per time segment.
"""
