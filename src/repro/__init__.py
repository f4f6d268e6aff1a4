"""Pilgrim reproduction — dynamic network forecasting via flow-level simulation.

This package is a from-scratch Python reproduction of the system described in
Imbert & Caron, *Dynamic Network Forecasting using SimGrid Simulations*,
IEEE CLUSTER 2012.  It contains:

- :mod:`repro.simgrid` — a flow-level discrete-event network simulator
  re-implementing SimGrid's published TCP sharing models (the predictor),
- :mod:`repro.testbed` — a detailed TCP/CUBIC emulator standing in for the
  Grid'5000 testbed (the "measured reality"),
- :mod:`repro.g5k` — a synthetic Grid'5000 Reference API plus the converter
  that turns it into simulator platform descriptions,
- :mod:`repro.rrd` / :mod:`repro.metrology` — a round-robin-database substrate
  and collectors, backing the Pilgrim metrology service,
- :mod:`repro.core` — Pilgrim itself: the network forecast service (PNFS),
  the RRD metrology service and the REST layer exposing both,
- :mod:`repro.nws` — a Network Weather Service style baseline forecaster,
- :mod:`repro.experiments` — the paper's §V validation protocol and its
  full campaign,
- :mod:`repro.analysis` — error statistics and text rendering of the figures.

Quickstart::

    from repro import Pilgrim, TransferSpec

    pilgrim = Pilgrim.with_grid5000()
    forecasts = pilgrim.predict_transfers(
        "g5k_test",
        [TransferSpec("capricorne-36.lyon.grid5000.fr",
                      "griffon-50.nancy.grid5000.fr", 5e8),
         TransferSpec("capricorne-36.lyon.grid5000.fr",
                      "capricorne-1.lyon.grid5000.fr", 5e8)])
    for fc in forecasts:
        print(fc.src, "->", fc.dst, fc.duration)
"""

__version__ = "1.0.0"

# Lazy attribute exports (PEP 562): keeps `from repro import Pilgrim` working
# without forcing every subpackage import when only one substrate is needed.
# Everything else is imported from the module that defines it.
_EXPORTS = {
    "Pilgrim": ("repro.core.framework", "Pilgrim"),
    "TransferSpec": ("repro.core.forecast", "TransferSpec"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))

__all__ = ["Pilgrim", "TransferSpec", "__version__"]
