"""Plug-in context-management services.

Cabot "supports plug-in context management services"; the paper's
inconsistency resolution module is one such plug-in, "invoked whenever
Cabot received new contexts".  This module defines the service
contract and registry so the middleware manager can host an arbitrary
stack of services (resolution, logging, metrics, situation
evaluation) without knowing their internals.
"""

from __future__ import annotations

from abc import ABC
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .manager import Middleware

__all__ = ["MiddlewareService", "ServiceRegistry"]


class MiddlewareService(ABC):
    """Base class for middleware plug-ins.

    A service is attached to exactly one manager; ``on_attach`` is its
    chance to subscribe to bus events or grab references.
    """

    #: Unique service name within one manager.
    name: str = "service"

    def on_attach(self, middleware: "Middleware") -> None:
        """Called once when the service is plugged into a manager."""

    def on_detach(self, middleware: "Middleware") -> None:
        """Called when the service is unplugged from a manager.

        Services that subscribed bus handlers in :meth:`on_attach`
        must unsubscribe them here, so a detached service leaves no
        dangling callbacks and can be re-attached to a fresh manager
        without double-handling events.
        """

    def on_start(self) -> None:
        """Called when a run begins (after all services attached)."""

    def on_stop(self) -> None:
        """Called when a run ends."""


class ServiceRegistry:
    """Ordered collection of the services plugged into one manager."""

    def __init__(self) -> None:
        self._services: Dict[str, MiddlewareService] = {}
        self._order: List[str] = []

    def add(self, service: MiddlewareService) -> None:
        if service.name in self._services:
            raise ValueError(f"service {service.name!r} already plugged in")
        self._services[service.name] = service
        self._order.append(service.name)

    def get(self, name: str) -> MiddlewareService:
        return self._services[name]

    def remove(self, name: str) -> MiddlewareService:
        """Unregister and return a service; ``KeyError`` if unknown."""
        service = self._services.pop(name)
        self._order.remove(name)
        return service

    def maybe_get(self, name: str) -> Optional[MiddlewareService]:
        return self._services.get(name)

    def __iter__(self):
        return (self._services[name] for name in self._order)

    def __len__(self) -> int:
        return len(self._services)

    def __contains__(self, name: object) -> bool:
        return name in self._services

    def start_all(self) -> None:
        for service in self:
            service.on_start()

    def stop_all(self) -> None:
        for service in self:
            service.on_stop()
