(** Machine-readable run reports.

    Assembles the full telemetry of one timing simulation — exact
    configuration (provenance), aggregate statistics, stall-cause
    breakdown, predictor-structure counters, aggregate load-latency
    histogram, and the per-load-site table — into one JSON document or
    a flat CSV.

    Shape guarantees (checked by the golden-file test and the report
    smoke script):
    - [stalls.busy + Σ stalls.<cause> = totals.cycles];
    - the [load_sites] entries' ["count"] fields sum to
      [totals.loads]. *)

val to_json :
  ?meta:(string * Elag_telemetry.Json.t) list -> Pipeline.t ->
  Elag_telemetry.Json.t
(** [meta] fields (workload name, run timestamps, …) are embedded
    verbatim under a ["meta"] key when non-empty. *)

val to_csv : ?meta:(string * string) list -> Pipeline.t -> string
(** Flat export: a [metric,value] section (the integer totals, busy and
    per-cause stall cycles, and the non-empty load-latency buckets as
    [load_latency_bucket_le_<bound>] rows) followed by one CSV row per
    load site. *)
