"""Serving quickstart: from a trained checkpoint to live streaming forecasts.

The training-side quickstart (``examples/quickstart.py``) ends with a fitted
model; this example shows the production path that follows (see
``docs/serving_quickstart.md`` for the walkthrough):

1. train DyHSL briefly and save a *self-describing* checkpoint — weights
   plus model config, adjacency and the fitted scaler in one ``.npz``;
2. bring up a :class:`repro.serving.ForecastService` from that file alone;
3. answer a burst of concurrent queries through the micro-batching queue —
   forwards run on the compiled graph-free runtime (``repro.runtime``) by
   default — with repeated windows served from the LRU forecast cache;
4. stream live detector readings into the rolling window buffer and emit a
   forecast after every new five-minute step;
5. restart: persist the rolling buffer next to the checkpoint and bring up
   a second service that resumes streaming forecasts immediately
   (warm start, no 12-step cold window);
6. scale out: bring up the same :class:`repro.serving.ForecastService`
   with ``num_shards=4`` from the same checkpoint — four replica workers
   on the thread executor with asynchronous
   ``submit()`` ingestion (size-threshold plus linger-based background
   flushing) — and verify its forecasts are bit-identical to the
   single-worker service.

Run it with::

    python examples/serve_forecasts.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.core import DyHSL, DyHSLConfig
from repro.data import ForecastingData, WindowConfig, load_dataset
from repro.serving import ForecastService
from repro.tensor import seed
from repro.training import Trainer, TrainerConfig, save_model_checkpoint


def train_and_checkpoint(data: ForecastingData, path: Path) -> Path:
    """Train a compact DyHSL and save the self-describing serving checkpoint."""
    config = DyHSLConfig(
        num_nodes=data.num_nodes,
        hidden_dim=16,
        prior_layers=2,
        num_hyperedges=8,
        window_sizes=(1, 2, 3, 4, 6, 12),
        mhce_layers=2,
    )
    model = DyHSL(config, data.adjacency)
    trainer = Trainer(model, data, TrainerConfig(max_epochs=3, batch_size=32, verbose=True))
    trainer.fit()
    metrics = trainer.evaluate("validation")
    return save_model_checkpoint(
        model,
        path,
        adjacency=data.adjacency,
        scaler=data.scaler,
        metadata={"validation_mae": metrics.mae},
    )


def main() -> None:
    seed(0)

    # 1. Train on a scaled-down synthetic PEMS08 and checkpoint the result.
    dataset = load_dataset("PEMS08", node_scale=0.06, step_scale=0.04, seed=0)
    data = ForecastingData(dataset, window=WindowConfig(input_length=12, output_length=12))
    print(f"dataset: {dataset.num_nodes} sensors, {dataset.num_steps} steps")

    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = train_and_checkpoint(data, Path(tmp) / "dyhsl_serving")
        print(f"\ncheckpoint written: {checkpoint.name}")

        # 2. A fresh process would start here: the service rebuilds the model,
        #    scaler and buffer from the checkpoint file alone.
        service = ForecastService.from_checkpoint(checkpoint, cache_entries=256)
        print(f"service up: model version {service.model_version}, horizon {service.horizon}")

        # 3. A burst of concurrent queries: 32 windows, half of them repeats.
        #    In-flight repeats are deduplicated into one forward slot, the
        #    unique windows are answered by a single coalesced batched pass,
        #    and a second identical burst is served entirely from the cache.
        #    Inputs are on the raw flow scale.
        raw_windows = data.dataset.signal[: 16 * 12].reshape(16, 12, data.num_nodes, -1)
        burst = raw_windows[list(range(16)) + list(range(16))]
        forecasts = service.forecast_many(burst)
        stats = service.stats()
        print(
            f"\nburst of {burst.shape[0]} requests: forecasts {forecasts.shape}, "
            f"computed in one batch of {stats.batcher.largest_batch}"
        )
        service.forecast_many(burst)  # dashboard refresh: same queries again
        stats = service.stats()
        print(
            f"repeat burst: cache hit rate now {stats.cache.hit_rate:.0%} "
            f"({stats.cache.hits} hits / {stats.cache.misses} misses)"
        )

        # 4. Streaming: feed the tail of the signal step by step;
        #    once the rolling buffer holds 12 steps, every new reading yields
        #    an updated 60-minute forecast.
        live_signal = data.dataset.signal[-36:]
        emitted = 0
        for step, reading in enumerate(live_signal):
            service.ingest(reading)
            if service.buffer.ready:
                forecast = service.forecast_latest()
                emitted += 1
                if emitted % 12 == 0:
                    peak = float(forecast.max())
                    print(
                        f"  step {step:2d}: next-hour forecast ready, "
                        f"peak flow {peak:.0f} vehicles/5min"
                    )
        stats = service.stats()
        print(
            f"\nserved {stats.requests} requests total on the {stats.runtime} runtime  "
            f"(cache: {stats.cache.hits} hits / {stats.cache.misses} misses, "
            f"{stats.batcher.flushes} batched flushes)"
        )

        # 5. Warm start: persist the buffer, "restart", resume immediately.
        buffer_state = service.save_buffer_state(Path(tmp) / "dyhsl_serving_buffer")
        restarted = ForecastService.from_checkpoint(
            checkpoint, buffer_state=buffer_state, cache_entries=256
        )
        print(
            f"\nrestarted service: buffer ready={restarted.buffer.ready} "
            f"after {restarted.buffer.steps_ingested} restored steps — "
            f"first streaming forecast peak "
            f"{float(restarted.forecast_latest().max()):.0f} vehicles/5min"
        )

        # 6. Scale out: the same checkpoint behind four replica workers.
        #    submit() never computes — batches fire when a worker queue reaches
        #    auto_flush_at or when the 10 ms linger flusher drains it — and
        #    the merged forecasts are bit-identical to the single worker.
        reference = service.forecast_many(raw_windows)
        with ForecastService.from_checkpoint(
            checkpoint,
            num_shards=4,
            executor="threads",
            cache_entries=256,
            auto_flush_at=8,
            linger_ms=10.0,
        ) as sharded:
            handles = [sharded.submit(window) for window in raw_windows]
            forecasts = np.stack([handle.result() for handle in handles])
            stats = sharded.stats()
            per_shard = [shard.requests for shard in stats.shards]
            print(
                f"\nsharded service ({stats.num_shards} {stats.executor} workers): "
                f"{len(handles)} async requests routed {per_shard}, "
                f"{stats.flusher.timed_flushes} linger flushes, "
                f"max |diff| vs single worker = "
                f"{float(np.abs(forecasts - reference).max()):.1e}"
            )


if __name__ == "__main__":
    main()
