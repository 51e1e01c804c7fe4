(** Pluggable reporters over engine results: the human rendering, a
    machine-readable JSON document, and TAP v14. *)

type format = Human | Json | Tap

val format_to_string : format -> string
val format_of_string : string -> format option

(** Render grouped engine results in the requested format.  [Human]
    prints each group's header, then per claim either a report claim's
    table or the one line
    [\[ok|FAIL\] <description>\[ — <detail>\]\[ <method>\]], where an
    [Error] reads [\[FAIL\] <description> — raised <message>].  [Json]
    emits one document with per-claim status, detail, counterexample and
    stats; [Tap] emits TAP v14, one test point per claim. *)
val pp :
  format ->
  Format.formatter ->
  (Registry.group * Engine.outcome list) list ->
  unit
