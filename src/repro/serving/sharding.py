"""The legacy multi-worker entry point.

:class:`ShardedForecastService` is :class:`~repro.serving.ForecastService`
with a two-replica default and the historical ``mode`` keyword (only
``"replicas"`` exists; node sharding was removed).  New code should write
``ForecastService(model, num_shards=K, executor=...)`` directly.
"""

from __future__ import annotations

from typing import Optional

from ..nn import Module
from .service import ForecastService

__all__ = ["ShardedForecastService"]


class ShardedForecastService(ForecastService):
    """:class:`~repro.serving.ForecastService` defaulting to ``num_shards=2``.

    ``mode`` accepts only ``"replicas"``; any other value raises
    :class:`ValueError`.  Every other keyword is a
    :class:`~repro.serving.ForecastService` parameter.
    """

    def __init__(
        self,
        model: Module,
        scaler: Optional[object] = None,
        model_version: Optional[str] = None,
        num_shards: int = 2,
        mode: str = "replicas",
        **kwargs,
    ) -> None:
        if mode != "replicas":
            raise ValueError(
                f"unsupported sharding mode {mode!r}: node sharding was removed; "
                "only mode='replicas' is available"
            )
        super().__init__(
            model, scaler=scaler, model_version=model_version, num_shards=num_shards, **kwargs
        )

    # perfbench/tracing.py wraps forecast_latest through this class's own
    # __dict__, so the subclass keeps an entry of its own.
    forecast_latest = ForecastService.forecast_latest
