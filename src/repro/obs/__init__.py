"""Cross-layer observability: metrics registry, span tracing, kernel profiling.

``repro.obs`` is the shared substrate the other layers report into:

* :mod:`repro.obs.metrics` — counters / gauges / histograms with the
  seeded-reservoir quantile machinery, deterministic cross-executor
  merging (:meth:`MetricsRegistry.absorb` rides the cluster ledger absorb
  path), and Prometheus-style text exposition.
* :mod:`repro.obs.trace` — per-query span trees through the full service →
  topology → bolt → kernel lifecycle, exported as replay-deterministic
  Chrome trace-event JSON (Perfetto-loadable) or a text tree view.
* :mod:`repro.obs.profile` — opt-in kernel search counters behind a
  null-object default, so the disabled path costs one thread-local lookup
  per primitive call and zero per-relaxation branches.
"""

__all__: list[str] = []
