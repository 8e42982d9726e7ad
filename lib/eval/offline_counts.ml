(** Table 2 (unique syscall instructions logged during the offline
    phase) and Figure 3 (the log file generated for ls). *)

open K23_kernel
open K23_userland
module K23 = K23_core.K23
module Apps = K23_apps

type entry = { app : string; sites : int; expected : int }

let coreutil_expected = Apps.Coreutils.expected_sites

(** Offline phase for one coreutil. *)
let coreutil_sites name =
  let w = Sim.create_world () in
  Apps.Coreutils.register_all w;
  let path = Apps.Coreutils.path name in
  List.length (K23.offline_run w ~path ())

(** Offline phase for one server/database spec. *)
let app_spec_sites spec =
  let w = Sim.create_world () in
  let path, port = Macro.register_workload w spec in
  (match spec.Macro.workload with
  | Macro.Sqlite _ -> ignore (K23.offline_run w ~path ~max_steps:80_000_000 ())
  | Macro.Web _ | Macro.Redis _ ->
    let stats = K23_interpose.Interpose.fresh_stats () in
    Kern.register_library w (K23_core.Offline.image ~stats ());
    let env = K23_interpose.Interpose.add_preload [] K23_core.Offline.lib_path in
    let tracer = K23_core.Ptracer.preload_enforcer ~lib_path:K23_core.Offline.lib_path () in
    (match World.spawn w ~path ~env ~tracer () with
    | Error e -> failwith (Printf.sprintf "offline spawn failed: %d" e)
    | Ok _ -> ());
    Macro.wait_for_listener w port;
    (match Macro.client_for spec ~rounds:3 with
    | Some client -> ignore (Macro.drive_client w ~client)
    | None -> ());
    Macro.kill_everything w);
  List.length (K23_core.Log_store.read w ~app:path)

(** The paper's Table 2 (expected column from the paper). *)
let paper_counts =
  [
    ("pwd", 7);
    ("touch", 9);
    ("ls", 10);
    ("cat", 11);
    ("clear", 13);
    ("sqlite", 20);
    ("nginx", 43);
    ("lighttpd", 44);
    ("redis", 92);
  ]

let table2 () =
  let core =
    List.map
      (fun (name, expected) -> { app = name; sites = coreutil_sites name; expected })
      coreutil_expected
  in
  let servers =
    [
      { app = "sqlite"; sites = app_spec_sites Macro.sqlite; expected = 20 };
      {
        app = "nginx";
        sites = app_spec_sites (Macro.nginx ~workers:1 ~kb:0);
        expected = 43;
      };
      {
        app = "lighttpd";
        sites = app_spec_sites (Macro.lighttpd ~workers:1 ~kb:0);
        expected = 44;
      };
      { app = "redis"; sites = app_spec_sites (Macro.redis ~io_threads:1); expected = 92 };
    ]
  in
  core @ servers

let render_table2 entries =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "%-10s %14s %14s\n" "Application" "#Instructions" "(paper)");
  List.iter
    (fun { app; sites; expected } ->
      Buffer.add_string buf (Printf.sprintf "%-10s %14d %14d\n" app sites expected))
    entries;
  Buffer.contents buf

(** Figure 3: the offline log generated for ls. *)
let fig3 () =
  let w = Sim.create_world () in
  Apps.Coreutils.register_all w;
  ignore (K23.offline_run w ~path:(Apps.Coreutils.path "ls") ());
  match Vfs.read_file w.Kern.vfs (K23_core.Log_store.path_for ~app:"/bin/ls") with
  | Ok content -> content
  | Error _ -> "(no log)"
