(** E8 / P4b: memory cost of the NULL-execution-check state.

    zpoline's bitmap spans the whole 2^48-byte virtual address space
    (one bit per address); K23 keeps a Robin-Hood hash set bounded by
    the offline logs; lazypoline keeps nothing (and checks nothing). *)

open K23_kernel
open K23_userland
module Apps = K23_apps

type entry = {
  system : string;
  reserved_bytes : int;
  resident_bytes : int;
  note : string;
}

(** Run ls to completion under [mech] and read its check state's
    [footprint] (reserved, resident bytes). *)
let measure (mech, footprint, note) =
  let path = Apps.Coreutils.path "ls" in
  let w = Sim.create_world () in
  Apps.Coreutils.register_all w;
  Mech.prologue mech w ~path;
  match Mech.launch mech w ~path () with
  | Error e -> failwith (string_of_int e)
  | Ok (p, _) ->
    World.run_until_exit w p;
    let reserved_bytes, resident_bytes = footprint p in
    { system = Mech.to_string mech; reserved_bytes; resident_bytes; note }

let run () =
  List.map measure
    [
      ( Mech.Zpoline_ultra,
        K23_baselines.Zpoline.check_memory_bytes,
        "bitmap over the whole address space" );
      (Mech.Lazypoline, (fun _ -> (0, 0)), "no state, but also no check (P4a unhandled)");
      ( Mech.K23_ultra,
        (fun p ->
          let b = K23_core.K23.check_memory_bytes p in
          (b, b)),
        "Robin-Hood hash set bounded by the offline logs" );
    ]

let render entries =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%-14s %18s %16s  %s\n" "System" "reserved (B)" "resident (B)" "");
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%-14s %18d %16d  %s\n" e.system e.reserved_bytes e.resident_bytes e.note))
    entries;
  Buffer.contents buf
