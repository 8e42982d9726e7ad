(** Per-mechanism ktrace summaries.

    Runs the Table 5 stress app under each mechanism with the ktrace
    subsystem enabled and condenses the resulting event stream into an
    event-kind histogram plus the world-level named counters — the
    observability companion to the overhead tables: where Table 5 says
    *how much* a mechanism costs, this shows *what it does* (SIGSYS
    deliveries, selector toggles, ptrace stops, rewrites...). *)

open K23_kernel
open K23_userland

type row = {
  mech : Mech.t;
  recorded : int;  (** events still in the ring *)
  dropped : int;  (** overwritten by ring overflow *)
  kinds : (string * int) list;  (** event-kind histogram, sorted by name *)
  counters : (string * int) list;  (** world-lifetime named counters *)
}

let histogram events =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      let k = K23_obs.Event.kind ev.K23_obs.Event.ev_payload in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    events;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(** One traced run of the syscall-stress app under [mech]. *)
let run_mech ?(seed = 42) ?(iters = 300) mech =
  let w = Sim.create_world ~seed () in
  let t = Kern.ktrace_enable w in
  Micro.install w ~mech ~iters ~offline_iters:100;
  match Mech.launch mech w ~path:Micro.app_path () with
  | Error e ->
    failwith (Printf.sprintf "ktrace_summary: launch %s failed (%d)" (Mech.to_string mech) e)
  | Ok (p, _stats) ->
    World.run_until_exit w p;
    let events = K23_obs.Trace.events t in
    {
      mech;
      recorded = List.length events;
      dropped = K23_obs.Trace.dropped t;
      kinds = histogram events;
      counters = K23_obs.Counters.to_list t.K23_obs.Trace.counters;
    }

let run ?seed ?iters () = List.map (run_mech ?seed ?iters) Mech.table5_rows

let render rows =
  let buf = Buffer.create 1024 in
  let pairs ps =
    String.concat "  " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) ps)
  in
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%-22s %6d events (%d dropped)\n" (Mech.to_string r.mech) r.recorded
           r.dropped);
      Buffer.add_string buf (Printf.sprintf "  events:   %s\n" (pairs r.kinds));
      (* the nr-indexed counters are one line per syscall number — too
         noisy for a summary table; keep the semantic ones *)
      let interesting =
        List.filter (fun (k, _) -> not (String.length k > 7 && String.sub k 0 7 = "sys.nr.")) r.counters
      in
      Buffer.add_string buf (Printf.sprintf "  counters: %s\n" (pairs interesting)))
    rows;
  Buffer.contents buf
