"""Flow-level network sharing models: the pluggable ``SharingModel`` layer.

A *sharing model* turns a route (a sequence of directed link traversals)
into the quantities the kernel shares bandwidth with: a startup latency, a
max-min fairness weight, a per-flow rate bound and the capacity constraints
the flow consumes.  Models register themselves by name
(:func:`register_model`) and are looked up with :func:`model_by_name`; the
``repro models list`` CLI verb enumerates the registry.

Every model also carries an explicit identity contract — :meth:`model_key`
— used by every cache and shard layer (forecast cache, request coalescer,
surrogate tier) instead of ad-hoc ``repr`` keying: two model instances with
equal keys must produce identical forecasts, and any parameter that changes
predictions must appear in the key.  :func:`model_key_of` is the helper the
serving layers call (it falls back to ``repr`` for foreign objects).

The built-in static models are the ones the paper's predictions rely on
(§IV-A):

- **CM02** (Casanova & Marchal 2002): RTT-aware max-min sharing, no
  empirical corrections.
- **LV08** (Velho & Legrand 2009, SimGrid's default at the time of the
  paper): CM02 plus three calibrated corrections —

  * achievable bandwidth is 97 % of nominal (``bandwidth_factor`` 0.97),
  * effective startup latency is 13.01× the physical latency
    (``latency_factor``; accounts for slow-start on short transfers),
  * the fairness weight per link is ``latency + weight_S / bandwidth`` with
    ``weight_S`` = 20537 (protocol overhead term),
  * every flow's rate is capped by the maximum TCP window:
    ``TCP_gamma / (2 · RTT)`` — the paper configures ``TCP_gamma`` = 4194304
    to match the senders' 4 MiB maximum congestion windows.

All three constants are the published SimGrid values; they can be
overridden, e.g. ``LV08(tcp_gamma=8388608)`` for hosts tuned with larger
windows.

Models may also be **time-varying** (``time_varying = True``): their
per-flow weight/bound evolve over a flow's lifetime through a
:meth:`flow_dynamics` schedule the engine re-evaluates on round timers —
see :mod:`repro.simgrid.tcpfluid` for the congestion-aware TCP-fluid model
built on this hook.
"""

from __future__ import annotations

import difflib
import inspect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.simgrid.platform import LinkUse, SharingPolicy, link_epoch

#: Minimum fairness weight, used when a route has zero latency and the model
#: has no weight_S term (all-equal weights => plain max-min fairness).
MIN_WEIGHT = 1e-12


class SharingModel:
    """Abstract interface of a flow-level network sharing model.

    Implementations provide the per-route quantities (startup latency,
    fairness weight, rate bound, effective bandwidth) and an explicit
    :meth:`model_key` identity; :meth:`sharing_usages` and
    :meth:`comm_spec` are shared concrete machinery built on them.
    Instances must be immutable and hashable (``comm_spec`` memoizes on the
    route keyed by the model instance).
    """

    #: True when per-flow sharing weights/bounds evolve over a flow's
    #: lifetime; the engine then drives the :meth:`flow_dynamics` schedule
    #: through round timers and in-place ``SharingSystem`` retunes.
    time_varying: bool = False

    # -- identity ------------------------------------------------------------

    def model_key(self) -> tuple:
        """Hashable identity of this model for cache/batch/shard keying.

        Contract: two instances with equal keys must produce identical
        forecasts; every parameter that changes predictions must appear in
        the key.  This replaces the historical ``repr(model)`` keying —
        see :func:`model_key_of`.
        """
        raise NotImplementedError

    # -- per-route quantities ------------------------------------------------

    def route_raw_latency(self, route: Sequence[LinkUse]) -> float:
        """Physical one-way latency: sum of link latencies."""
        return sum(use.link.latency for use in route)

    def startup_latency(self, route: Sequence[LinkUse]) -> float:
        """Serial delay before bytes flow."""
        raise NotImplementedError

    def flow_weight(self, route: Sequence[LinkUse]) -> float:
        """Max-min fairness weight (larger ⇒ smaller share)."""
        raise NotImplementedError

    def rate_bound(self, route: Sequence[LinkUse]) -> float:
        """Per-flow rate cap (``inf`` when unbounded)."""
        raise NotImplementedError

    def effective_bandwidth(self, nominal: float) -> float:
        """Usable capacity of a link."""
        raise NotImplementedError

    def flow_dynamics(self, route: Sequence[LinkUse]):
        """Fresh per-flow dynamic state for time-varying models.

        Static models return ``None``.  Time-varying models return an
        object with ``spec() -> (weight, bound)``, an ``interval`` (seconds
        to the first re-evaluation after data starts) and
        ``advance(achieved_rate) -> next_interval | None`` — the engine
        applies ``spec()`` after every ``advance`` and stops the schedule
        when it returns ``None``.
        """
        return None

    # -- shared concrete machinery -------------------------------------------

    def sharing_usages(
        self, route: Sequence[LinkUse]
    ) -> tuple[tuple[object, float, float], ...]:
        """Per-constraint consumption of a flow on ``route``.

        Returns ``(constraint key, effective capacity, coefficient)`` triples,
        one per distinct capacity constraint the route crosses: FATPIPE links
        contribute nothing (they are folded into :meth:`rate_bound`), SHARED
        links crossed in both directions appear once with coefficient 2, and
        FULLDUPLEX links appear once per traversed direction.  This is the
        cacheable part of the sharing problem — it only depends on the route
        and the model, so the engine computes it once per communication
        instead of re-walking the route at every event.
        """
        aggregated: dict[object, list[float]] = {}
        for use in route:
            link = use.link
            if link.policy is SharingPolicy.FATPIPE:
                continue
            key = link.constraint_key(use.direction)
            entry = aggregated.get(key)
            if entry is None:
                aggregated[key] = [self.effective_bandwidth(link.bandwidth), 1.0]
            else:
                entry[1] += 1.0
        return tuple(
            (key, capacity, coefficient)
            for key, (capacity, coefficient) in aggregated.items()
        )

    def comm_spec(
        self, route: Sequence[LinkUse]
    ) -> tuple[float, float, float, tuple[tuple[object, float, float], ...]]:
        """``(startup latency, weight, bound, sharing usages)`` for a flow on
        ``route``, memoized on the route object when it is a platform-cached
        :class:`~repro.simgrid.platform.Route`.

        All four quantities depend only on the route's links and this
        (immutable) model, so they are computed once per (route, model) pair
        instead of once per communication — the per-comm half of the
        route-caching work.  Entries are stamped with the global link
        mutation epoch: in-place link recalibration (latency feed, bandwidth
        edits) invalidates them automatically.
        """
        memo = getattr(route, "model_specs", None)
        epoch = link_epoch()
        if memo is not None:
            entry = memo.get(self)
            if entry is not None and entry[0] == epoch:
                return entry[1]
        spec = (
            self.startup_latency(route),
            self.flow_weight(route),
            self.rate_bound(route),
            self.sharing_usages(route),
        )
        if memo is not None:
            memo[self] = (epoch, spec)
        return spec


def model_key_of(model: object) -> object:
    """The canonical cache/batch/shard identity of ``model``.

    Uses the :meth:`SharingModel.model_key` contract when the object
    provides it, ``repr`` otherwise (foreign or ad-hoc model objects keep
    working, just without cross-instance key equality guarantees).
    """
    key = getattr(model, "model_key", None)
    if callable(key):
        return key()
    return repr(model)


@dataclass(frozen=True)
class NetworkModel(SharingModel):
    """A parameterised *static* flow-level network model (CM02/LV08 family)."""

    name: str = "CM02"
    bandwidth_factor: float = 1.0
    latency_factor: float = 1.0
    weight_S: float = 0.0
    #: TCP maximum-window rate cap parameter (bytes); 0 disables the cap.
    tcp_gamma: float = 0.0

    def model_key(self) -> tuple:
        return (
            "NetworkModel",
            self.name,
            self.bandwidth_factor,
            self.latency_factor,
            self.weight_S,
            self.tcp_gamma,
        )

    # -- per-route quantities ------------------------------------------------

    def startup_latency(self, route: Sequence[LinkUse]) -> float:
        """Serial delay before bytes flow: ``latency_factor × Σ latency``."""
        return self.latency_factor * self.route_raw_latency(route)

    def flow_weight(self, route: Sequence[LinkUse]) -> float:
        """Max-min fairness weight: ``Σ (latency + weight_S / bandwidth)``.

        Larger weight ⇒ smaller share on a saturated constraint, which is how
        the RTT-proportional unfairness of TCP is reproduced.
        """
        weight = 0.0
        for use in route:
            weight += use.link.latency + (self.weight_S / use.link.bandwidth if self.weight_S else 0.0)
        return max(weight, MIN_WEIGHT)

    def rate_bound(self, route: Sequence[LinkUse]) -> float:
        """Per-flow rate cap from the TCP window: ``gamma / (2·Σ latency)``,
        further limited by every FATPIPE link's effective bandwidth."""
        bound = math.inf
        if self.tcp_gamma > 0:
            lat = self.route_raw_latency(route)
            if lat > 0:
                bound = self.tcp_gamma / (2.0 * lat)
        for use in route:
            if use.link.policy is SharingPolicy.FATPIPE:
                bound = min(bound, self.effective_bandwidth(use.link.bandwidth))
        return bound

    def effective_bandwidth(self, nominal: float) -> float:
        """Usable capacity of a link: ``bandwidth_factor × nominal``."""
        return self.bandwidth_factor * nominal


def CM02(tcp_gamma: float = 0.0) -> NetworkModel:
    """The uncorrected Casanova-Marchal 2002 model."""
    return NetworkModel(name="CM02", bandwidth_factor=1.0, latency_factor=1.0,
                        weight_S=0.0, tcp_gamma=tcp_gamma)


def LV08(tcp_gamma: float = 4194304.0) -> NetworkModel:
    """The Velho-Legrand 2009 calibrated model (SimGrid default, used by the
    paper with ``network/TCP_gamma = 4194304``)."""
    return NetworkModel(name="LV08", bandwidth_factor=0.97, latency_factor=13.01,
                        weight_S=20537.0, tcp_gamma=tcp_gamma)


# -- the model registry ------------------------------------------------------


@dataclass(frozen=True)
class RegisteredModel:
    """One registry entry: a named sharing-model factory plus metadata."""

    name: str
    factory: Callable[..., SharingModel]
    description: str = ""

    def parameters(self) -> dict[str, object]:
        """Keyword parameters the factory accepts, mapped to their defaults
        (``None`` for parameters without one) — what ``model_by_name(name,
        **kwargs)`` forwards and ``repro models list`` prints."""
        params: dict[str, object] = {}
        for p in inspect.signature(self.factory).parameters.values():
            if p.kind in (inspect.Parameter.VAR_POSITIONAL,
                          inspect.Parameter.VAR_KEYWORD):
                continue
            params[p.name] = (None if p.default is inspect.Parameter.empty
                              else p.default)
        return params

    def build(self, **kwargs) -> SharingModel:
        return self.factory(**kwargs)


_REGISTRY: dict[str, RegisteredModel] = {}


def register_model(
    name: str,
    factory: Callable[..., SharingModel],
    description: str = "",
) -> Callable[..., SharingModel]:
    """Register a sharing-model factory under ``name``.

    ``factory(**kwargs)`` must build an immutable :class:`SharingModel`;
    its keyword defaults are introspected for ``repro models list``.  The
    description defaults to the factory docstring's first line.  Returns
    the factory so the call can wrap a ``def``.
    """
    if name in _REGISTRY:
        raise ValueError(f"model name {name!r} is already registered")
    if not description:
        description = (factory.__doc__ or "").strip().split("\n")[0]
    _REGISTRY[name] = RegisteredModel(name=name, factory=factory,
                                      description=description)
    return factory


def registered_models() -> tuple[RegisteredModel, ...]:
    """Every registered sharing model entry, in registration order."""
    return tuple(_REGISTRY.values())


def model_by_name(name: str, **kwargs) -> SharingModel:
    """Build a model by registry name (``"CM02"``/``"LV08"``/``"tcp_fluid"``).

    Lookup is exact first, then case-insensitive (CLI convenience).  An
    unknown name raises :class:`ValueError` listing every registered name,
    with a close-match suggestion when one exists; bad factory keyword
    arguments raise :class:`ValueError` listing the accepted parameters.
    """
    entry = _REGISTRY.get(name)
    if entry is None and isinstance(name, str):
        folded = {known.lower(): reg for known, reg in _REGISTRY.items()}
        entry = folded.get(name.lower())
    if entry is None:
        known = ", ".join(sorted(_REGISTRY))
        close = difflib.get_close_matches(str(name), list(_REGISTRY), n=1)
        hint = f"; did you mean {close[0]!r}?" if close else ""
        raise ValueError(
            f"unknown network model {name!r}: registered models are "
            f"[{known}]{hint}"
        )
    try:
        return entry.factory(**kwargs)
    except TypeError as exc:
        accepted = ", ".join(sorted(entry.parameters()))
        raise ValueError(
            f"bad parameters for model {entry.name!r}: {exc} "
            f"(accepted: {accepted})"
        ) from None


register_model("CM02", CM02)
register_model("LV08", LV08)

# Imported last (the registry above must exist first): registers the
# congestion-aware "tcp_fluid" model so every model_by_name caller sees it.
from repro.simgrid import tcpfluid as _tcpfluid  # noqa: E402,F401
