(** The serving layer: one loaded synopsis answering a stream of estimate
    requests, learning from execution feedback as it goes.

    An {!t} owns a {!Core.Estimator.t} and wraps it with the three things a
    host optimizer needs that the per-query API does not give:

    - {b amortized EPT}: the traveler's estimation path tree is materialized
      once and shared across queries instead of rebuilt per call;
    - {b an estimate cache}: queries are canonicalized ({!Canonical}) and
      served from a size-bounded LRU ({!Lru_cache}), so equivalent spellings
      cost one pipeline run;
    - {b a feedback loop} ({!Feedback}): observed true cardinalities whose
      q-error crosses a threshold refresh the HET under its memory budget,
      after which every cached estimate and the shared EPT are invalidated —
      the next requests re-derive from the refined synopsis.

    On top of these the engine carries serving telemetry: every answered
    query appends a {!Flight_recorder} record (stage wall times, cache
    outcome, per-query matcher stats), feedback observations stream into a
    {!Drift} monitor (sliding-window q-error with edge-triggered alerts),
    and [metrics_text] renders the whole registry — engine totals, drift
    gauges and any pipeline counters sharing the context — as a Prometheus
    scrape payload. Telemetry is on by default and cheap (a ring-buffer
    store per query); [~telemetry:false] turns the recorder and monitor off
    for baseline benchmarking.

    The per-query pipeline itself lives in {!Shard}, with two front ends:
    this engine serves one shard inline on the caller's thread, and
    {!Pool} runs N of the same shards over one shared synopsis, each
    answered on the thread that asks, with single-writer feedback and
    epoch-based cache invalidation. Both answer every verb through the same shard
    code, so their estimates and flight records agree by construction;
    {!Serve} is the line protocol both speak.

    Surfaced on the command line as [xseed serve] (line protocol, with
    [--workers N] for the pool) and [xseed replay] (workload-driven
    feedback rounds). *)

module Canonical = Canonical
module Lru_cache = Lru_cache
module Feedback = Feedback
module Flight_recorder = Flight_recorder
module Drift = Drift
module Serve = Serve
module Pool = Pool
module Journal = Journal
module Registry = Registry
module Auditor = Auditor
module Scrape_meter = Scrape_meter

include module type of struct
  include Engine_core
end
