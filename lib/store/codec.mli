(** JSON codecs for the durability layer: attribute values, logical
    mutations, WAL batches, and whole-graph snapshots for compaction.

    The value encoding is the $-tagged scheme shared with the service wire
    protocol ([Service.Protocol] aliases {!value_to_json} /
    {!value_of_json}), so disk and wire representations cannot drift. *)

val value_to_json : Pgraph.Value.t -> Obs.Json.t
val value_of_json : Obs.Json.t -> (Pgraph.Value.t, string) result

val mutation_to_json : Pgraph.Graph.mutation -> Obs.Json.t
val mutation_of_json : Obs.Json.t -> (Pgraph.Graph.mutation, string) result

type batch = {
  b_version : int;  (** graph version after applying the batch *)
  b_ops : Pgraph.Graph.mutation list;
}
(** One committed write transaction — the WAL's record payload. *)

val batch_to_json : batch -> Obs.Json.t
val batch_of_json : Obs.Json.t -> (batch, string) result

val schema_to_json : Pgraph.Schema.t -> Obs.Json.t
val schema_of_json : Obs.Json.t -> (Pgraph.Schema.t, string) result

val graph_to_json : ?version:int -> Pgraph.Graph.t -> Obs.Json.t
(** Full snapshot: schema plus every vertex/edge as its insertion call, in
    id order — decoding reproduces the dense ids exactly, so WAL batches
    recorded after the snapshot keep addressing the right rows. *)

val graph_of_string : ?len:int -> string -> (Pgraph.Graph.t * int, string) result
(** Rebuilds the graph from the text of [graph_to_json] (its first [len]
    bytes; default all) and returns it with the snapshot's version.  One
    pass, no tree of the whole graph: rows are streamed into the graph as
    they are read, so [schema] must come before [vertices] and [vertices]
    before [edges], the order [graph_to_json] writes.  Malformed JSON is
    [Error "snapshot parse: ..."]; a bad row keeps the row decoder's
    message. *)
